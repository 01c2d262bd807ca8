package core

import (
	"fmt"
	"math"

	"osdp/internal/dataset"
	"osdp/internal/noise"
)

// This file provides an empirical analyser for the exclusion attack of
// §3.2. Definition 3.4 (φ-freedom from exclusion attacks) bounds how much
// any product-prior adversary can sharpen the odds that a target record is
// sensitive after seeing a mechanism's output:
//
//	posterior-odds(x vs y) ≤ e^φ · prior-odds(x vs y).
//
// Under a product prior the posterior amplification equals the likelihood
// ratio Pr[M(D_x) ∈ O] / Pr[M(D_y) ∈ O], so the analyser estimates that
// ratio by Monte Carlo over mechanism runs: OSDP mechanisms stay below e^ε
// (Theorem 3.1) while mechanisms that release non-sensitive records
// truthfully and completely exhibit unbounded ratios (the exclusion attack;
// PDP's Suppress with τ=∞ is the canonical offender).

// FullRelease is the "All NS" baseline: it releases every non-sensitive
// record truthfully and suppresses every sensitive record. It is the
// record-release analogue of PDP's Suppress algorithm with τ = ∞ and does
// NOT satisfy OSDP for any finite ε — the analyser demonstrates the
// unbounded leak.
type FullRelease struct {
	policy dataset.Policy
}

// NewFullRelease builds the baseline for the given policy.
func NewFullRelease(policy dataset.Policy) *FullRelease {
	return &FullRelease{policy: policy}
}

// Release returns all non-sensitive records.
func (m *FullRelease) Release(db *dataset.Table, _ noise.Source) *dataset.Table {
	_, ns := db.Split(m.policy)
	return ns
}

// Guarantee reports an infinite ε: FullRelease offers no OSDP protection.
func (m *FullRelease) Guarantee() Guarantee {
	return Guarantee{Policy: m.policy, Epsilon: math.Inf(1)}
}

// Name implements Mechanism.
func (m *FullRelease) Name() string { return "AllNS" }

// EventFunc reduces a mechanism output to a discrete event key so that
// output distributions can be compared. The exclusion attack needs only
// the coarsest event — whether the target appears in the release.
type EventFunc func(out *dataset.Table) string

// PresenceEvent returns an EventFunc reporting "present" when a record
// equal to target (by value) appears in the output and "absent" otherwise.
func PresenceEvent(target dataset.Record) EventFunc {
	key := target.Key()
	return func(out *dataset.Table) string {
		for _, r := range out.Records() {
			if r.Key() == key {
				return "present"
			}
		}
		return "absent"
	}
}

// ExclusionReport is the result of an empirical exclusion-attack analysis.
type ExclusionReport struct {
	// EventProbX and EventProbY are the estimated output-event
	// distributions when the target record takes value x and y.
	EventProbX, EventProbY map[string]float64
	// MaxLogRatio is the estimated φ: the largest ln(p_x(e)/p_y(e)) over
	// observed events, where x is the sensitive value. Definition 3.4 is
	// one-sided — it bounds only how much an output can raise the odds of
	// the sensitive value, so events impossible under x (ratio 0) do not
	// count, while events impossible under y but possible under x push φ
	// to +Inf — the unbounded leak of a mechanism vulnerable to exclusion
	// attacks.
	MaxLogRatio float64
	// Trials is the Monte Carlo sample count per world.
	Trials int
}

// String renders the report compactly.
func (r ExclusionReport) String() string {
	return fmt.Sprintf("φ̂=%.3f over %d trials (x: %v, y: %v)",
		r.MaxLogRatio, r.Trials, r.EventProbX, r.EventProbY)
}

// AnalyzeExclusion estimates the posterior-odds amplification an adversary
// gains about the value of the record at index slot. It runs mech trials
// times on the database with the slot set to x and again with it set to y,
// compares the event distributions, and reports the worst log-ratio.
//
// To exhibit an exclusion attack, choose x sensitive under the mechanism's
// policy and y non-sensitive, and use PresenceEvent(y): for a mechanism
// that always releases non-sensitive records the event "y absent" has
// probability 1 in world x but 0 in world y, so MaxLogRatio = +Inf,
// whereas a (P, ε)-OSDP mechanism stays ≤ ε up to sampling error.
func AnalyzeExclusion(mech Mechanism, base *dataset.Table, slot int, x, y dataset.Record, event EventFunc, trials int, src noise.Source) ExclusionReport {
	if trials <= 0 {
		panic("core: trials must be positive")
	}
	run := func(v dataset.Record) map[string]float64 {
		db := dataset.NewTable(base.Schema())
		for j, r := range base.Records() {
			if j == slot {
				db.Append(v)
			} else {
				db.Append(r)
			}
		}
		return eventDist(mech, db, event, trials, src)
	}
	px, py := run(x), run(y)
	// Every observed event has positive probability under x, so a zero
	// floor counts exactly the events that can raise the odds of x.
	maxLog, _ := worstRatio(px, py, 0)
	return ExclusionReport{EventProbX: px, EventProbY: py, MaxLogRatio: maxLog, Trials: trials}
}
