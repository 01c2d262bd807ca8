package main

import (
	"math/rand/v2"

	"osdp/internal/server"
)

// eps is the privacy level of every query the benchmark sends.
const eps = 0.1

// request is one query of a workload's stream. Histogram and workload
// requests name a shape of their mix; counts name a predicate (-1
// counts every record).
type request struct {
	kind   string
	shape  int
	pred   int
	q      float64
	est    string
	ranges []server.RangeSpec
}

// mix is one workload: the table size, the histogram shapes and count
// predicates its requests draw on, and the draw itself.
type mix struct {
	name      string
	rows      int
	setups    int // set-ups per run; setup_s is their median
	shapes    [][]server.DomainSpec
	preds     []predicate
	quantiles bool
	samples   bool
	// draw returns the next request of one analyst's stream; cycle
	// counts the stream's workload requests, for estimator rotation.
	draw func(r *rand.Rand, cycle *int) request
}

var (
	groupDim     = server.DomainSpec{Attr: "Group"}
	ageDecades   = server.DomainSpec{Attr: "Age", Lo: 0, Width: 10, Bins: 10}
	score1024    = server.DomainSpec{Attr: "Score", Lo: 0, Width: 1, Bins: 1024}
	estimators   = []string{server.EstimatorFlat, server.EstimatorHier, server.EstimatorDAWA, server.EstimatorAHP, server.EstimatorAGrid}
	quantileQs   = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	fixedFilters = []predicate{
		ageAtLeast(30),
		{cmpSpec("Age", "<", 50), func(r row) bool { return r.age < 50 }},
		{cmpSpec("Group", "=", "g03"), func(r row) bool { return r.group == 3 }},
		{cmpSpec("Score", ">", 500), func(r row) bool { return r.score > 500 }},
		{
			server.PredicateSpec{Op: "and", Args: []server.PredicateSpec{cmpSpec("Age", ">=", 40), cmpSpec("Score", "<=", 300)}},
			func(r row) bool { return r.age >= 40 && r.score <= 300 },
		},
		{
			server.PredicateSpec{Op: "or", Args: []server.PredicateSpec{cmpSpec("Group", "=", "g00"), cmpSpec("Group", "=", "g01")}},
			func(r row) bool { return r.group <= 1 },
		},
		{
			server.PredicateSpec{Op: "not", Args: []server.PredicateSpec{cmpSpec("Group", "=", "g10")}},
			func(r row) bool { return r.group != 10 },
		},
		{
			server.PredicateSpec{Op: "and", Args: []server.PredicateSpec{cmpSpec("Age", ">=", 25), cmpSpec("Age", "<", 35)}},
			func(r row) bool { return r.age >= 25 && r.age < 35 },
		},
	}
)

// randomRanges draws n inclusive bin ranges over a domain of size bins.
func randomRanges(r *rand.Rand, n, bins int) []server.RangeSpec {
	out := make([]server.RangeSpec, n)
	for i := range out {
		a, b := r.IntN(bins), r.IntN(bins)
		if a > b {
			a, b = b, a
		}
		out[i] = server.RangeSpec{Lo: a, Hi: b}
	}
	return out
}

// mixes are the workloads. Both send queries that cost milliseconds of
// scan or noise, so the ledger fsync every query waits on is a small
// share of its time. A mix of sub-millisecond queries on a small table
// would measure that fsync instead, and through it whatever else uses
// the disk: on a 2-CPU VM with a shared disk, such a mix's throughput
// moved 2-3x between runs of the same code.
var mixes = []*mix{
	{
		name:   "scan-heavy",
		rows:   1_000_000,
		setups: 3,
		shapes: [][]server.DomainSpec{{groupDim}, {groupDim, ageDecades}, {score1024}},
		preds:  fixedFilters,
		draw: func(r *rand.Rand, cycle *int) request {
			u := r.Float64()
			switch {
			case u < 0.35:
				return request{kind: server.KindHistogram, shape: 0}
			case u < 0.60:
				return request{kind: server.KindHistogram, shape: 1}
			case u < 0.85:
				return request{kind: server.KindCount, pred: r.IntN(len(fixedFilters))}
			default:
				est := estimators[*cycle%len(estimators)]
				*cycle++
				return request{kind: server.KindWorkload, shape: 2, est: est, ranges: randomRanges(r, 64, score1024.Bins)}
			}
		},
	},
	{
		name:      "release",
		rows:      50_000,
		setups:    7,
		quantiles: true,
		samples:   true,
		draw: func(r *rand.Rand, _ *int) request {
			// Mostly samples, so the median falls inside their narrow
			// latency mode and not on the edge of the quantiles' one.
			if r.Float64() < 0.7 {
				return request{kind: server.KindSample}
			}
			return request{kind: server.KindQuantile, q: quantileQs[r.IntN(len(quantileQs))]}
		},
	},
}

func mixNamed(name string) *mix {
	for _, m := range mixes {
		if m.name == name {
			return m
		}
	}
	return nil
}

// stream is one analyst's request sequence. It depends only on the
// workload, the seed and the analyst's index.
type stream struct {
	m     *mix
	r     *rand.Rand
	cycle int
}

func newStream(m *mix, seed uint64, analyst int) *stream {
	return &stream{m: m, r: rand.New(rand.NewPCG(seed, uint64(analyst)+1))}
}

func (s *stream) next() request {
	return s.m.draw(s.r, &s.cycle)
}
