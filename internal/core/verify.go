package core

import (
	"fmt"
	"math"

	"osdp/internal/dataset"
	"osdp/internal/noise"
)

// This file provides an empirical OSDP verifier: a testing harness that
// estimates, by Monte Carlo, the worst output-probability ratio of a
// mechanism across every one-sided neighbor of a base database. It is the
// OSDP analogue of the statistical DP testers used to smoke-test DP
// libraries: it cannot prove privacy, but it reliably catches mechanisms
// whose empirical ratios blow past e^ε (such as FullRelease) and gives
// tests a single number to assert against.

// VerifyConfig tunes the verifier.
type VerifyConfig struct {
	// Trials is the Monte Carlo sample count per database (required).
	Trials int
	// Event discretises mechanism outputs; nil defaults to a multiset
	// fingerprint of the released table, the finest generic event.
	Event EventFunc
	// MinEventProb discards events too rare to estimate: events with
	// probability below this in BOTH worlds are skipped (their ratio
	// estimates are dominated by sampling error). Default 0.005.
	MinEventProb float64
}

// VerifyResult is the verifier's output.
type VerifyResult struct {
	// MaxLogRatio is the largest |ln(p(e|D) / p(e|D'))| observed over all
	// neighbor pairs and events. For a correct (P, ε)-OSDP mechanism it
	// stays ≤ ε up to sampling slack; +Inf marks events possible in one
	// world and unseen in the other despite adequate probability mass.
	MaxLogRatio float64
	// Pairs is the number of neighbor pairs exercised.
	Pairs int
	// WorstPair describes the neighbor pair achieving MaxLogRatio.
	WorstPair string
}

// VerifyOSDP estimates the empirical privacy loss of mech on base: for
// every sensitive record in base and every replacement in universe, it
// compares output-event distributions between base and that one-sided
// neighbor. universe should cover representative record values, including
// both sensitive and non-sensitive ones.
func VerifyOSDP(mech Mechanism, base *dataset.Table, p dataset.Policy, universe []dataset.Record, cfg VerifyConfig, src noise.Source) VerifyResult {
	if cfg.Trials <= 0 {
		panic("core: VerifyOSDP requires positive Trials")
	}
	if cfg.MinEventProb == 0 {
		cfg.MinEventProb = 0.005
	}
	event := cfg.Event
	if event == nil {
		event = multisetEvent
	}

	baseDist := eventDist(mech, base, event, cfg.Trials, src)

	res := VerifyResult{}
	record := func(lr float64, ev string, i int, repl dataset.Record) {
		if lr > res.MaxLogRatio {
			res.MaxLogRatio = lr
			res.WorstPair = fmt.Sprintf("record %d <-> %s (event %q)", i, repl.Key(), ev)
		}
	}
	for i := 0; i < base.Len(); i++ {
		if !p.Sensitive(base.Record(i)) {
			continue // non-sensitive records have no one-sided neighbors
		}
		for _, repl := range universe {
			nb, err := OneSidedNeighbor(base, p, i, repl)
			if err != nil {
				continue // identity replacement
			}
			nbDist := eventDist(mech, nb, event, cfg.Trials, src)
			res.Pairs++
			// Definition 3.3 bounds Pr[M(D) ∈ O] by e^ε·Pr[M(D') ∈ O] for
			// D' ∈ N_P(D): check base against its neighbor.
			lr, ev := worstRatio(baseDist, nbDist, cfg.MinEventProb)
			record(lr, ev, i, repl)
			// The relation is asymmetric: the reverse constraint applies
			// only when the swapped-in record is itself sensitive (then
			// base ∈ N_P(nb)).
			if p.Sensitive(repl) {
				lr, ev = worstRatio(nbDist, baseDist, cfg.MinEventProb)
				record(lr, ev, i, repl)
			}
		}
	}
	return res
}

// eventDist estimates the output-event distribution of mech on db from
// trials Monte Carlo releases.
func eventDist(mech Mechanism, db *dataset.Table, event EventFunc, trials int, src noise.Source) map[string]float64 {
	counts := make(map[string]int)
	for i := 0; i < trials; i++ {
		counts[event(mech.Release(db, src))]++
	}
	out := make(map[string]float64, len(counts))
	for e, c := range counts {
		out[e] = float64(c) / float64(trials)
	}
	return out
}

// worstRatio returns the largest one-directional log probability ratio
// ln(from(e)/to(e)) across events with enough mass in from to estimate.
// Events possible under from but unseen under to yield +Inf.
func worstRatio(from, to map[string]float64, minProb float64) (float64, string) {
	var worst float64
	var worstEv string
	for e, pf := range from {
		if pf < minProb {
			continue
		}
		var lr float64
		if pt := to[e]; pt > 0 {
			lr = math.Log(pf / pt)
		} else {
			lr = math.Inf(1)
		}
		if lr > worst {
			worst = lr
			worstEv = e
		}
	}
	return worst, worstEv
}

// multisetEvent fingerprints a release as its sorted multiset of record
// keys — the finest event that ignores record order.
func multisetEvent(out *dataset.Table) string {
	m := out.Multiset()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: releases in verification scenarios are small.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s×%d;", k, m[k])
	}
	return s
}
