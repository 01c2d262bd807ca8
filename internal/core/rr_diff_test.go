package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"osdp/internal/dataset"
	"osdp/internal/noise"
)

// This file pins RR.Release, which skip-samples over the cached
// non-sensitive partition, to the row-at-a-time statement of Algorithm 1.
// The two consume uniforms differently, so the same seed does not give
// the same rows; instead chi-square tests require the same law: the same
// distribution of kept counts and the same keep frequency at every
// position. Session.Sample and Session.Quantile must equal RR.Release
// bit for bit on the same seed, since they call it.

// referenceRelease is Algorithm 1 evaluated record by record: the policy
// is asked about every row of db, and each non-sensitive row draws one
// keep coin, in db order. Kept rows are copied into a new table.
func referenceRelease(db *dataset.Table, p dataset.Policy, eps float64, src noise.Source) *dataset.Table {
	keep := noise.KeepProbability(eps)
	out := dataset.NewTable(db.Schema())
	for i, n := 0, db.Len(); i < n; i++ {
		r := db.Record(i)
		if p.NonSensitive(r) && noise.Bernoulli(src, keep) {
			out.Append(r)
		}
	}
	return out
}

// referenceQuantile is the sample q-quantile of attr over a release,
// read through the row API; ok is false when the release is empty.
func referenceQuantile(rel *dataset.Table, attr string, q float64) (v float64, ok bool) {
	if rel.Len() == 0 {
		return 0, false
	}
	values := make([]float64, rel.Len())
	for i := range values {
		values[i] = rel.Record(i).Get(attr).AsFloat()
	}
	sort.Float64s(values)
	rank := max(int(math.Ceil(q*float64(len(values)))), 1)
	return values[rank-1], true
}

// minorPred is a Predicate implementation the dataset package cannot
// assign a cache identity to, so splits under it are recomputed on
// every call.
type minorPred struct{ maxAge int64 }

func (p minorPred) Eval(r dataset.Record) bool { return r.Get("Age").AsInt() <= p.maxAge }
func (p minorPred) String() string             { return fmt.Sprintf("Age <= %d", p.maxAge) }

func diffSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Field{Name: "ID", Kind: dataset.KindInt},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
	)
}

// diffDB builds n rows with distinct IDs, ages spanning both sides of
// the minors policy, and a float attribute for float quantiles.
func diffDB(n int) *dataset.Table {
	db := dataset.NewTable(diffSchema())
	src := noise.NewSource(99)
	for i := 0; i < n; i++ {
		age := int64(src.Float64() * 80)
		db.AppendValues(dataset.Int(int64(i)), dataset.Int(age), dataset.Float(src.Float64()*100))
	}
	return db
}

// sameRows fails the test unless got and want hold the same records in
// the same order.
func sameRows(t *testing.T, what string, got, want *dataset.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, reference has %d", what, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if g, w := got.Record(i).Key(), want.Record(i).Key(); g != w {
			t.Fatalf("%s: row %d = %s, reference has %s", what, i, g, w)
		}
	}
}

// diffCase is one table and policy every differential test runs over.
type diffCase struct {
	name   string
	db     *dataset.Table
	policy dataset.Policy
}

// diffCases covers the base table, a Filter view, an opaque
// FuncPredicate, an uncacheable predicate type and a view under an
// uncacheable predicate.
func diffCases() []diffCase {
	base := diffDB(400)
	minors := dataset.Cmp("Age", dataset.OpLe, dataset.Int(17))
	return []diffCase{
		{"base", base, dataset.NewPolicy("minors", minors)},
		{"view", base.Filter(dataset.Cmp("ID", dataset.OpGe, dataset.Int(100))), dataset.NewPolicy("minors", minors)},
		{"func-predicate", base, dataset.NewPolicy("fn", dataset.FuncPredicate("minor",
			func(r dataset.Record) bool { return r.Get("Age").AsInt() <= 17 }))},
		{"uncacheable", base, dataset.NewPolicy("custom", minorPred{maxAge: 17})},
		{"view+uncacheable", base.Filter(dataset.Cmp("Score", dataset.OpLt, dataset.Float(50))),
			dataset.NewPolicy("custom", minorPred{maxAge: 30})},
	}
}

// chiSquareCritical is the upper 10⁻⁴ quantile of χ²(df), by the
// Wilson–Hilferty cube approximation (accurate to a few percent even at
// df = 1, and far better at the df these tests use).
func chiSquareCritical(df int) float64 {
	const z = 3.719 // standard normal upper 10⁻⁴ quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// keptPositions maps each kept row of a release back to its position
// among db's non-sensitive rows, using the distinct ID column.
func keptPositions(t *testing.T, rel *dataset.Table, posOfID map[int64]int) []int {
	t.Helper()
	out := make([]int, rel.Len())
	for i := range out {
		pos, ok := posOfID[rel.Record(i).Get("ID").AsInt()]
		if !ok {
			t.Fatalf("release holds row %s, which is not non-sensitive", rel.Record(i).Key())
		}
		out[i] = pos
	}
	return out
}

// countsChiSquare is the two-sample χ² homogeneity statistic for kept
// counts: adjacent count values are pooled into bins holding at least
// 20 releases of both samplers together, and the 2×bins table is tested.
func countsChiSquare(a, b []int, n int) (stat float64, df int) {
	ha, hb := make([]float64, n+1), make([]float64, n+1)
	for i := range a {
		ha[a[i]]++
		hb[b[i]]++
	}
	var binsA, binsB []float64
	var accA, accB float64
	for k := 0; k <= n; k++ {
		accA += ha[k]
		accB += hb[k]
		if accA+accB >= 20 {
			binsA, binsB = append(binsA, accA), append(binsB, accB)
			accA, accB = 0, 0
		}
	}
	if len(binsA) > 0 {
		binsA[len(binsA)-1] += accA
		binsB[len(binsB)-1] += accB
	}
	total := float64(len(a) + len(b))
	for i := range binsA {
		col := binsA[i] + binsB[i]
		for _, o := range []struct{ obs, rowTotal float64 }{{binsA[i], float64(len(a))}, {binsB[i], float64(len(b))}} {
			e := o.rowTotal * col / total
			stat += (o.obs - e) * (o.obs - e) / e
		}
	}
	return stat, len(binsA) - 1
}

// positionsChiSquare sums, over positions, the 2×2 χ² statistic comparing
// how often each sampler kept that position in trials releases. Under
// the same law the positions are independent, so the sum is χ²(df) with
// one degree of freedom per position whose pooled frequency is in (0, 1).
func positionsChiSquare(a, b []int, trials int) (stat float64, df int) {
	for j := range a {
		p := float64(a[j]+b[j]) / float64(2*trials)
		if p == 0 || p == 1 {
			continue
		}
		d := float64(a[j] - b[j])
		stat += d * d / (2 * float64(trials) * p * (1 - p))
		df++
	}
	return stat, df
}

// TestOsdpRRMatchesPerRowReference checks that skip-sampling releases
// with Algorithm 1's law: over many seeded releases, RR.Release and the
// per-row reference must agree on the distribution of kept counts and on
// every non-sensitive position's keep frequency (χ² tests at 10⁻⁴).
func TestOsdpRRMatchesPerRowReference(t *testing.T) {
	const trials = 400
	for ci, c := range diffCases() {
		_, ns := c.db.Split(c.policy)
		posOfID := make(map[int64]int, ns.Len())
		for i := 0; i < ns.Len(); i++ {
			posOfID[ns.Record(i).Get("ID").AsInt()] = i
		}
		for ei, eps := range []float64{0.05, 0.5, 2} {
			what := fmt.Sprintf("%s eps=%v", c.name, eps)
			m := NewRR(c.policy, eps)
			skipSrc := noise.NewSource(int64(1000 + 10*ci + ei))
			refSrc := noise.NewSource(int64(2000 + 10*ci + ei))
			skipCounts, refCounts := make([]int, trials), make([]int, trials)
			skipPos, refPos := make([]int, ns.Len()), make([]int, ns.Len())
			for trial := range trials {
				got := keptPositions(t, m.Release(c.db, skipSrc), posOfID)
				want := keptPositions(t, referenceRelease(c.db, c.policy, eps, refSrc), posOfID)
				if !sort.IntsAreSorted(got) {
					t.Fatalf("%s: release is not in table order: %v", what, got)
				}
				skipCounts[trial], refCounts[trial] = len(got), len(want)
				for _, j := range got {
					skipPos[j]++
				}
				for _, j := range want {
					refPos[j]++
				}
			}
			if stat, df := countsChiSquare(skipCounts, refCounts, ns.Len()); df > 0 && stat > chiSquareCritical(df) {
				t.Errorf("%s: kept counts differ from the reference: χ² = %.1f on %d df (critical %.1f)",
					what, stat, df, chiSquareCritical(df))
			}
			if stat, df := positionsChiSquare(skipPos, refPos, trials); stat > chiSquareCritical(df) {
				t.Errorf("%s: per-position keep frequencies differ from the reference: χ² = %.1f on %d df (critical %.1f)",
					what, stat, df, chiSquareCritical(df))
			}
		}
	}
}

// TestSessionReleasesMatchRRRelease checks that Session.Sample and
// Session.Quantile are RR.Release bit for bit: one session draws a sample
// and then a quantile from one stream, and RR.Release replays both
// releases on its own copy of the stream, so draw counts must agree too.
func TestSessionReleasesMatchRRRelease(t *testing.T) {
	for _, c := range diffCases() {
		for _, eps := range []float64{0.05, 0.5, 2} {
			m := NewRR(c.policy, eps)
			for seed := int64(1); seed <= 20; seed++ {
				what := fmt.Sprintf("%s eps=%v seed=%d", c.name, eps, seed)
				q := float64(seed%5) / 4                 // 0, 0.25, 0.5, 0.75, 1
				attr := []string{"Score", "Age"}[seed%2] // float and int columns

				ref := noise.NewSource(seed)
				refSample := m.Release(c.db, ref)
				wantQ, wantOK := referenceQuantile(m.Release(c.db, ref), attr, q)

				sess := NewSession(c.db, c.policy, 0, noise.NewSource(seed))
				sample, err := sess.Sample(eps)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, what+" Session.Sample", sample, refSample)
				gotQ, err := sess.Quantile(attr, q, eps)
				switch {
				case !wantOK:
					if !errors.Is(err, ErrEmptySample) {
						t.Fatalf("%s: quantile over an empty release: got (%v, %v), want ErrEmptySample", what, gotQ, err)
					}
				case err != nil || math.Float64bits(gotQ) != math.Float64bits(wantQ):
					t.Fatalf("%s: %s quantile q=%v = (%v, %v), RR.Release gives %v", what, attr, q, gotQ, err, wantQ)
				}
			}
		}
	}
}

// countingSource counts the uniforms drawn through it.
type countingSource struct {
	src   noise.Source
	draws int
}

func (c *countingSource) Float64() float64 {
	c.draws++
	return c.src.Float64()
}

// TestOsdpRRDrawsKeptPlusOne pins the cost of a release: one uniform per
// kept row plus the one whose gap runs past the last row, not one per
// non-sensitive row.
func TestOsdpRRDrawsKeptPlusOne(t *testing.T) {
	for _, c := range diffCases() {
		for _, eps := range []float64{0.05, 0.5, 2} {
			for seed := int64(1); seed <= 10; seed++ {
				src := &countingSource{src: noise.NewSource(seed)}
				rel := NewRR(c.policy, eps).Release(c.db, src)
				if src.draws != rel.Len()+1 {
					t.Fatalf("%s eps=%v seed=%d: %d draws for %d kept rows, want kept + 1",
						c.name, eps, seed, src.draws, rel.Len())
				}
			}
		}
	}
}

// seqSource returns its values in order and fails the test when a
// release draws more than the fixture planned.
type seqSource struct {
	t  *testing.T
	us []float64
}

func (s *seqSource) Float64() float64 {
	if len(s.us) == 0 {
		s.t.Fatal("release drew more uniforms than the fixture supplies")
	}
	u := s.us[0]
	s.us = s.us[1:]
	return u
}

func TestOsdpRRReleaseEdgeCases(t *testing.T) {
	db := diffDB(400)
	p := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
	_, ns := db.Split(p)

	// ε = 50: the largest gap a 53-bit uniform can give is
	// ⌊53·ln2/50⌋ = 0, so every non-sensitive row is kept.
	for seed := int64(1); seed <= 5; seed++ {
		sameRows(t, "eps=50", NewRR(p, 50).Release(db, noise.NewSource(seed)), ns)
	}

	// Tiny ε: the gap is far beyond any int, and even beyond float64
	// range at the smallest subnormal; it must be compared, not converted.
	for _, eps := range []float64{1e-12, math.SmallestNonzeroFloat64} {
		for _, u := range []float64{0.5, 1 - 0x1p-53} {
			if rel := NewRR(p, eps).Release(db, &seqSource{t: t, us: []float64{u}}); rel.Len() != 0 {
				t.Errorf("eps=%v u=%v: kept %d rows, want 0", eps, u, rel.Len())
			}
		}
	}

	// u = 0 is a gap of 0: it keeps the next row. A draw whose gap runs
	// past the table (1 − 2⁻⁴⁰ at ε = 0.5 is a gap of 55) ends it.
	small := smallNumericTable(t, 50)
	all := dataset.AllNonSensitive()
	rel := NewRR(all, 0.5).Release(small, &seqSource{t: t, us: []float64{0, 0, 1 - 0x1p-40}})
	if rel.Len() != 2 || rel.Record(0).Get("X").AsInt() != 0 || rel.Record(1).Get("X").AsInt() != 1 {
		t.Errorf("u = 0, 0 then a long gap kept %d rows, want rows 0 and 1", rel.Len())
	}
	if rel := NewRR(all, 0.5).Release(small, constSource(0)); rel.Len() != small.Len() {
		t.Errorf("u = 0 on every draw kept %d of %d rows", rel.Len(), small.Len())
	}

	// An all-sensitive table releases an empty view.
	none := dataset.NewPolicy("everyone", dataset.Cmp("Age", dataset.OpGe, dataset.Int(0)))
	for seed := int64(1); seed <= 5; seed++ {
		if rel := NewRR(none, 2).Release(db, noise.NewSource(seed)); rel.Len() != 0 {
			t.Errorf("all-sensitive table released %d rows", rel.Len())
		}
	}
}

func TestOsdpRRReleaseIsCopyOnAppend(t *testing.T) {
	db := diffDB(200)
	p := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
	m := NewRR(p, 1)
	before := db.Multiset()
	first := m.Release(db, noise.NewSource(7))
	if first.Len() == 0 {
		t.Fatal("fixture release is empty")
	}
	firstKey := first.Record(0).Key()
	extra := dataset.NewRecord(db.Schema(), dataset.Int(-1), dataset.Int(5), dataset.Float(0))
	first.Append(extra)

	if db.Len() != 200 {
		t.Fatalf("appending to a release grew db to %d rows", db.Len())
	}
	after := db.Multiset()
	if len(after) != len(before) {
		t.Fatalf("appending to a release changed db's multiset")
	}
	for k, c := range before {
		if after[k] != c {
			t.Fatalf("appending to a release changed db multiplicity of %s", k)
		}
	}
	if got := first.Record(0).Key(); got != firstKey {
		t.Fatalf("append rewrote the release's first row: %s, was %s", got, firstKey)
	}
	if got := first.Record(first.Len() - 1).Key(); got != extra.Key() {
		t.Fatalf("appended row reads back as %s", got)
	}
	// The next release over db is unaffected: same seed, same rows as a
	// release over an untouched copy of db, and the appended (sensitive)
	// record is nowhere.
	next := m.Release(db, noise.NewSource(7))
	sameRows(t, "release after append", next, m.Release(diffDB(200), noise.NewSource(7)))
	if next.Len() != first.Len()-1 {
		t.Fatalf("next release has %d rows, want %d", next.Len(), first.Len()-1)
	}
}
