package ledger

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"osdp/internal/telemetry"
)

// TestGroupCommitStressExactSpend hammers a durable ledger with 64
// goroutines of interleaved Charge/Refund/Account traffic that crosses
// several snapshot compactions, then pins the EXACT final spend and
// charge count per account. Run under -race this is the group-commit
// concurrency gate: writers mutate under the mutex, the committer
// drains outside it, and nothing may be lost or double-applied.
func TestGroupCommitStressExactSpend(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := Open(Config{
		Dir:    t.TempDir(),
		NoSync: true, // fsync cost would dominate; batching logic is identical
		// Prime number well below the traffic volume so compaction fires
		// repeatedly mid-stress, at unaligned points.
		SnapshotEvery: 97,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info, _, err := l.CreateAnalyst("stress", 0)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 64
	const rounds = 50
	type tally struct {
		spent   float64
		charges uint64
	}
	var refundsOK atomic.Uint64
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := fmt.Sprintf("ds%02d", w)
			eps := 0.001 * float64(w%7+1)
			for r := 0; r < rounds; r++ {
				if err := l.Charge(info.ID, ds, g(eps)); err != nil {
					t.Errorf("worker %d charge %d: %v", w, r, err)
					return
				}
				tallies[w].spent += eps
				tallies[w].charges++
				if r%3 == 2 {
					// A concurrent compaction may have folded the charge
					// into an aggregate the matcher cannot see; then the
					// charge stands — the documented safe direction.
					if err := l.Refund(info.ID, ds, g(eps)); err == nil {
						tallies[w].spent -= eps
						refundsOK.Add(1)
					}
				}
				if r%5 == 4 {
					if _, err := l.Account(info.ID, ds); err != nil {
						t.Errorf("worker %d account: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for w := 0; w < workers; w++ {
		ds := fmt.Sprintf("ds%02d", w)
		acct, err := l.Account(info.ID, ds)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(acct.Spent-tallies[w].spent) > 1e-9 {
			t.Errorf("account %s spent %.12f, want %.12f", ds, acct.Spent, tallies[w].spent)
		}
		if acct.Charges != tallies[w].charges {
			t.Errorf("account %s charges %d, want %d", ds, acct.Charges, tallies[w].charges)
		}
	}
	if got := metricValue(t, reg, "osdp_ledger_refunds_total"); got != float64(refundsOK.Load()) {
		t.Errorf("refunds metric %v, want %d (only durable refunds may count)", got, refundsOK.Load())
	}

	// Replayed state may only OVER-count relative to live memory (a
	// refund dropped by compaction), never under.
	liveTotal := l.TotalSpent()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Close has run the committer dry, so every batch is observed: each
	// committed record — the analyst, every charge, every durable
	// refund — counts in exactly one batch.
	h := reg.NewHistogram("osdp_ledger_fsync_batch_records", "", nil)
	if got, want := h.Sum(), float64(1+workers*rounds+refundsOK.Load()); got != want {
		t.Errorf("batch-size histogram sum %v, want %v records", got, want)
	}
	if waits := reg.NewHistogram("osdp_ledger_group_commit_wait_seconds", "", nil); waits.Count() == 0 {
		t.Error("group-commit wait histogram recorded nothing")
	}
	l2, err := Open(Config{Dir: l.cfg.Dir, NoSync: true, SnapshotEvery: 97})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if replayed := l2.TotalSpent(); replayed < liveTotal-1e-9 {
		t.Errorf("replay under-counts: %.12f live, %.12f replayed", liveTotal, replayed)
	}
}

// metricValue reads one unlabelled counter back out of the registry's
// Prometheus exposition.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var buf writerBuf
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range buf.lines() {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %f", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

func (w *writerBuf) lines() []string {
	var out []string
	start := 0
	for i, c := range w.b {
		if c == '\n' {
			out = append(out, string(w.b[start:i]))
			start = i + 1
		}
	}
	return out
}

// TestBatchFailureUndoesSpend sabotages the WAL file handle under
// concurrent chargers and asserts the failure contract: every waiter in
// the failed batch gets a non-nil error AND its in-memory spend undone;
// a refund whose batch fails keeps its in-memory effect (and is not
// counted in the refunds metric); replay never under-counts what was
// acknowledged before the sabotage.
func TestBatchFailureUndoesSpend(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, NoSync: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info, _, err := l.CreateAnalyst("victim", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(info.ID, "d", g(0.5)); err != nil {
		t.Fatal(err)
	}

	// The committer is idle (the charge above was acknowledged), so the
	// handle swap below cannot race a write in flight. Closing the file
	// makes the next batch's write fail, which must fail every charge
	// that rode it.
	if err := l.w.f.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failed atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Charge(info.ID, "d", g(0.01)); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 8 {
		t.Fatalf("%d of 8 charges on a sabotaged WAL failed; want all 8", failed.Load())
	}
	acct, err := l.Account(info.ID, "d")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acct.Spent-0.5) > 1e-12 || acct.Charges != 1 {
		t.Fatalf("failed batch leaked spend: spent %.12f charges %d, want 0.5 and 1", acct.Spent, acct.Charges)
	}
	if got := metricValue(t, reg, "osdp_ledger_charges_total"); got != 1 {
		t.Fatalf("charges metric %v, want 1 (failed batch must not count)", got)
	}

	// A refund that cannot persist keeps its in-memory effect — the
	// replayed state then over-counts, never under — and must not bump
	// the refunds metric.
	if err := l.Refund(info.ID, "d", g(0.5)); err == nil {
		t.Fatal("refund on a sabotaged WAL must report the durability failure")
	}
	if total := l.TotalSpent(); total > 1e-12 {
		t.Fatalf("in-memory refund must stand after durable failure; total spent %v", total)
	}
	if got := metricValue(t, reg, "osdp_ledger_refunds_total"); got != 0 {
		t.Fatalf("refunds metric %v, want 0 (refund batch failed)", got)
	}

	// Replay sees the acknowledged 0.5 charge; the failed refund never
	// reached the log, so the charge stands — an over-count vs the live
	// in-memory state, which is the safe direction.
	l.Close()
	l2, err := Open(Config{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if total := l2.TotalSpent(); math.Abs(total-0.5) > 1e-12 {
		t.Fatalf("replayed total %v, want 0.5 (acknowledged charge must survive)", total)
	}
}
