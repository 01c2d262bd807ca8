package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"osdp/internal/dataset"
	"osdp/internal/server"
)

// The generated table has three attributes. Rows with Age below
// adultAge are sensitive under the benchmark's policy; everything the
// mechanisms release is computed from the other rows.
const (
	numGroups = 64
	adultAge  = 18
	maxAge    = 90   // ages are drawn from [0, maxAge)
	scoreTop  = 1024 // scores lie in [0, scoreTop), three decimals
)

// row is one generated record, kept by the benchmark so it can compute
// the true answers the server's mechanisms estimate.
type row struct {
	age   int64
	group int // index into groupNames
	score float64
}

func (r row) sensitive() bool { return r.age < adultAge }

var groupNames = func() []string {
	out := make([]string, numGroups)
	for g := range out {
		out[g] = fmt.Sprintf("g%02d", g)
	}
	return out
}()

var schema = dataset.NewSchema(
	dataset.Field{Name: "Age", Kind: dataset.KindInt},
	dataset.Field{Name: "Group", Kind: dataset.KindString},
	dataset.Field{Name: "Score", Kind: dataset.KindFloat},
)

// policySpec marks minors sensitive. The server compiles it like any
// client-supplied policy, so the value is a JSON number.
var policySpec = server.PolicySpec{
	Name:          "minors",
	SensitiveWhen: server.PredicateSpec{Op: "cmp", Attr: "Age", Cmp: "<", Value: float64(adultAge)},
}

// generate draws n rows from seed: uniform ages, Zipf-like group sizes,
// and a score mixture of two overlapping modes, so histograms and range
// workloads see skewed, structured data while no quantile falls in an
// empty gap (where a sampled quantile's error would swing with the
// seed).
func generate(n int, seed uint64) []row {
	r := rand.New(rand.NewPCG(seed, 0x6f736470))
	cum := make([]float64, numGroups)
	total := 0.0
	for g := range cum {
		total += 1 / math.Pow(float64(g+1), 0.8)
		cum[g] = total
	}
	rows := make([]row, n)
	for i := range rows {
		g := sort.SearchFloat64s(cum, r.Float64()*total)
		if g >= numGroups {
			g = numGroups - 1
		}
		s := 650 + 150*r.NormFloat64()
		if r.Float64() < 0.6 {
			s = 350 + 100*r.NormFloat64()
		}
		s = math.Min(math.Max(math.Round(s*1000)/1000, 0), scoreTop-0.001)
		rows[i] = row{age: int64(r.IntN(maxAge)), group: g, score: s}
	}
	return rows
}

// buildTable loads rows into a fresh columnar table. Each set-up gets
// its own table: the table caches its policy split, so reusing one
// would let later set-ups skip work the first one paid for.
func buildTable(rows []row) *dataset.Table {
	t := dataset.NewTable(schema)
	for _, r := range rows {
		t.AppendValues(dataset.Int(r.age), dataset.Str(groupNames[r.group]), dataset.Float(r.score))
	}
	return t
}

// predicate is a count predicate as sent on the wire, paired with the
// benchmark's own evaluation of it.
type predicate struct {
	spec  server.PredicateSpec
	match func(row) bool
}

func cmpSpec(attr, op string, v any) server.PredicateSpec {
	return server.PredicateSpec{Op: "cmp", Attr: attr, Cmp: op, Value: v}
}

// ageAtLeast is the predicate Age >= k.
func ageAtLeast(k int64) predicate {
	return predicate{cmpSpec("Age", ">=", k), func(r row) bool { return r.age >= k }}
}

// axis is one histogram dimension as the benchmark sees it: the wire
// spec, the labels the server must return, and the bin of a row (-1
// when the row falls outside the domain).
type axis struct {
	spec   server.DomainSpec
	labels []string
	bin    func(row) int
}

// newAxis resolves spec against the non-sensitive rows. A spec without
// bins is a derived categorical domain over Group: the distinct groups
// present among non-sensitive rows, sorted. Otherwise it is an
// equi-width numeric domain over Age or Score.
func newAxis(spec server.DomainSpec, ns []row) axis {
	if spec.Bins == 0 {
		present := make([]bool, numGroups)
		for _, r := range ns {
			present[r.group] = true
		}
		index := make([]int, numGroups)
		var labels []string
		for g, ok := range present {
			index[g] = -1
			if ok {
				index[g] = len(labels)
				labels = append(labels, groupNames[g])
			}
		}
		return axis{spec: spec, labels: labels, bin: func(r row) int { return index[r.group] }}
	}
	value := func(r row) float64 { return r.score }
	if spec.Attr == "Age" {
		value = func(r row) float64 { return float64(r.age) }
	}
	labels := make([]string, spec.Bins)
	for i := range labels {
		labels[i] = fmt.Sprintf("[%g,%g)", spec.Lo+float64(i)*spec.Width, spec.Lo+float64(i+1)*spec.Width)
	}
	return axis{spec: spec, labels: labels, bin: func(r row) int {
		b := int(math.Floor((value(r) - spec.Lo) / spec.Width))
		if b < 0 || b >= spec.Bins {
			return -1
		}
		return b
	}}
}

// shapeTruth is one histogram shape with its exact non-sensitive
// counts (row-major over the axes) and, for 1-D shapes, prefix sums for
// range answers.
type shapeTruth struct {
	axes   []axis
	counts []float64
	prefix []float64
}

func (s *shapeTruth) rangeSum(lo, hi int) float64 { return s.prefix[hi+1] - s.prefix[lo] }

// truth holds the exact answers for one workload, computed by the
// benchmark's own loops over the non-sensitive rows before any set-up.
type truth struct {
	nonSensitive float64
	shapes       []shapeTruth
	preds        []float64
	scores       []float64 // sorted non-sensitive scores
	// rows is the multiset of generated rows, built only for workloads
	// that draw samples.
	rows map[row]int
}

func computeTruth(w *mix, rows []row) *truth {
	var ns []row
	for _, r := range rows {
		if !r.sensitive() {
			ns = append(ns, r)
		}
	}
	t := &truth{nonSensitive: float64(len(ns)), preds: make([]float64, len(w.preds))}
	for _, dims := range w.shapes {
		s := shapeTruth{}
		size := 1
		for _, d := range dims {
			a := newAxis(d, ns)
			s.axes = append(s.axes, a)
			size *= len(a.labels)
		}
		s.counts = make([]float64, size)
		for _, r := range ns {
			b := 0
			for _, a := range s.axes {
				ab := a.bin(r)
				if ab < 0 {
					b = -1
					break
				}
				b = b*len(a.labels) + ab
			}
			if b >= 0 {
				s.counts[b]++
			}
		}
		if len(s.axes) == 1 {
			s.prefix = make([]float64, size+1)
			for i, c := range s.counts {
				s.prefix[i+1] = s.prefix[i] + c
			}
		}
		t.shapes = append(t.shapes, s)
	}
	for i, p := range w.preds {
		for _, r := range ns {
			if p.match(r) {
				t.preds[i]++
			}
		}
	}
	if w.quantiles {
		t.scores = make([]float64, len(ns))
		for i, r := range ns {
			t.scores[i] = r.score
		}
		sort.Float64s(t.scores)
	}
	if w.samples {
		t.rows = make(map[row]int, len(rows))
		for _, r := range rows {
			t.rows[r]++
		}
	}
	return t
}

// quantile is the q-quantile of the non-sensitive scores under the
// server's rank rule: the ceil(q·n)-th smallest value, at least the
// first.
func (t *truth) quantile(q float64) float64 {
	rank := int(math.Ceil(q * float64(len(t.scores))))
	if rank < 1 {
		rank = 1
	}
	return t.scores[rank-1]
}
