package main

import (
	"fmt"
	"math"
	"slices"

	"osdp/internal/dataset"
	"osdp/internal/server"
)

// answer is what one SessionClient call returned.
type answer struct {
	value  float64              // count, quantile
	resp   server.QueryResponse // histograms, workloads
	sample *dataset.Table
}

// accuracy accumulates |released − truth| over every count, histogram
// cell, workload range and quantile answer.
type accuracy struct {
	absErr  float64
	answers int
}

func (a *accuracy) add(released, exact float64) {
	a.absErr += math.Abs(released - exact)
	a.answers++
}

func (a *accuracy) merge(b accuracy) {
	a.absErr += b.absErr
	a.answers += b.answers
}

func (a accuracy) mean() float64 {
	if a.answers == 0 {
		return 0
	}
	return a.absErr / float64(a.answers)
}

// check verifies one answer against the truth and adds its errors to
// acc. A non-nil error is a correctness violation.
func check(t *truth, req request, ans answer, acc *accuracy) error {
	switch req.kind {
	case server.KindCount:
		exact := t.nonSensitive
		if req.pred >= 0 {
			exact = t.preds[req.pred]
		}
		// One-sided noise never pushes a count above the true
		// non-sensitive count.
		if ans.value > exact {
			return fmt.Errorf("count %v exceeds the true non-sensitive count %v", ans.value, exact)
		}
		acc.add(ans.value, exact)
	case server.KindHistogram:
		s := &t.shapes[req.shape]
		if err := checkLabels(s, ans.resp); err != nil {
			return fmt.Errorf("%s: %w", req.kind, err)
		}
		for i, c := range ans.resp.Counts {
			acc.add(c, s.counts[i])
		}
	case server.KindWorkload:
		s := &t.shapes[req.shape]
		if len(ans.resp.Answers) != len(req.ranges) {
			return fmt.Errorf("workload: %d answers for %d ranges", len(ans.resp.Answers), len(req.ranges))
		}
		if ans.resp.Estimator != req.est {
			return fmt.Errorf("workload: estimator %q answered a %q request", ans.resp.Estimator, req.est)
		}
		for i, rg := range req.ranges {
			acc.add(ans.resp.Answers[i], s.rangeSum(rg.Lo, rg.Hi))
		}
	case server.KindQuantile:
		acc.add(ans.value, t.quantile(req.q))
	case server.KindSample:
		return checkSample(t, ans.sample)
	default:
		return fmt.Errorf("unknown kind %q", req.kind)
	}
	return nil
}

// checkLabels requires the histogram's arity and per-dimension labels
// to match the requested shape.
func checkLabels(s *shapeTruth, resp server.QueryResponse) error {
	if len(resp.Counts) != len(s.counts) {
		return fmt.Errorf("%d cells, want %d", len(resp.Counts), len(s.counts))
	}
	if len(resp.DimLabels) != len(s.axes) {
		return fmt.Errorf("%d label dimensions, want %d", len(resp.DimLabels), len(s.axes))
	}
	for i, a := range s.axes {
		if !slices.Equal(resp.DimLabels[i], a.labels) {
			return fmt.Errorf("dimension %d (%s) labels differ from the request's bins", i, a.spec.Attr)
		}
	}
	return nil
}

// checkSample requires every sampled row to be non-sensitive and to
// come from the generated table, no more often than the table holds it.
func checkSample(t *truth, tbl *dataset.Table) error {
	if !slices.Equal(tbl.Schema().Names(), schema.Names()) {
		return fmt.Errorf("sample: columns %v, want %v", tbl.Schema().Names(), schema.Names())
	}
	ages, ok1 := tbl.ColumnInts(0)
	codes, dict, ok2 := tbl.ColumnStrings(1)
	scores, ok3 := tbl.ColumnFloats(2)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("sample: column types differ from the generated table")
	}
	group := make([]int, len(dict))
	for i, name := range dict {
		group[i] = slices.Index(groupNames, name)
		if group[i] < 0 {
			return fmt.Errorf("sample: unknown group %q", name)
		}
	}
	seen := make(map[row]int, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		r := row{age: ages[i], group: group[codes[i]], score: scores[i]}
		if r.sensitive() {
			return fmt.Errorf("sample: released a sensitive row (Age %d)", r.age)
		}
		seen[r]++
		if seen[r] > t.rows[r] {
			return fmt.Errorf("sample: row %+v is not in the generated table that often", r)
		}
	}
	return nil
}
