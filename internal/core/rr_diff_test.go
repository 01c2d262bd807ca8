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

// This file pins RR.Release, Session.Sample and Session.Quantile, which
// all draw over the cached non-sensitive partition, to the row-at-a-time
// statement of Algorithm 1: with the same seeded source they must return
// the same rows in the same order and the same quantile, bit for bit.

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

// referenceQuantile is the sample q-quantile of attr over a reference
// release; ok is false when the release is empty.
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

func TestOsdpRRMatchesPerRowReference(t *testing.T) {
	base := diffDB(400)
	minors := dataset.Cmp("Age", dataset.OpLe, dataset.Int(17))
	cases := []struct {
		name   string
		db     *dataset.Table
		policy dataset.Policy
	}{
		{"base", base, dataset.NewPolicy("minors", minors)},
		{"view", base.Filter(dataset.Cmp("ID", dataset.OpGe, dataset.Int(100))), dataset.NewPolicy("minors", minors)},
		{"func-predicate", base, dataset.NewPolicy("fn", dataset.FuncPredicate("minor",
			func(r dataset.Record) bool { return r.Get("Age").AsInt() <= 17 }))},
		{"uncacheable", base, dataset.NewPolicy("custom", minorPred{maxAge: 17})},
		{"view+uncacheable", base.Filter(dataset.Cmp("Score", dataset.OpLt, dataset.Float(50))),
			dataset.NewPolicy("custom", minorPred{maxAge: 30})},
	}
	for _, c := range cases {
		for _, eps := range []float64{0.05, 0.5, 2} {
			for seed := int64(1); seed <= 20; seed++ {
				what := fmt.Sprintf("%s eps=%v seed=%d", c.name, eps, seed)
				q := float64(seed%5) / 4                 // 0, 0.25, 0.5, 0.75, 1
				attr := []string{"Score", "Age"}[seed%2] // float and int columns

				sameRows(t, what+" RR.Release",
					NewRR(c.policy, eps).Release(c.db, noise.NewSource(seed)),
					referenceRelease(c.db, c.policy, eps, noise.NewSource(seed)))

				// One session draws a sample and then a quantile from one
				// stream; the reference replays both releases on its own
				// copy of the stream, so the draw counts must agree too.
				ref := noise.NewSource(seed)
				refSample := referenceRelease(c.db, c.policy, eps, ref)
				wantQ, wantOK := referenceQuantile(referenceRelease(c.db, c.policy, eps, ref), attr, q)

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
						t.Fatalf("%s: quantile over an empty reference release: got (%v, %v), want ErrEmptySample", what, gotQ, err)
					}
				case err != nil || math.Float64bits(gotQ) != math.Float64bits(wantQ):
					t.Fatalf("%s: %s quantile q=%v = (%v, %v), reference %v", what, attr, q, gotQ, err, wantQ)
				}
			}
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
	// The next release over db is unaffected: same seed, same rows as
	// the reference, and the appended (sensitive) record is nowhere.
	next := m.Release(db, noise.NewSource(7))
	sameRows(t, "release after append", next, referenceRelease(db, p, 1, noise.NewSource(7)))
	if next.Len() != first.Len()-1 {
		t.Fatalf("next release has %d rows, want %d", next.Len(), first.Len()-1)
	}
}
