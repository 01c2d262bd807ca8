package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Seq uint64 `json:"seq"`
	V   string `json:"v"`
}

func recSeq(r *rec) *uint64 { return &r.Seq }

// open opens the log at path with the test record type and closes it at
// cleanup (a second Close is a no-op).
func open(t *testing.T, path string, cfg Config[rec]) *Log[rec] {
	t.Helper()
	cfg.Seq = recSeq
	l, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// ack appends one record and waits for it to be durable.
func ack(t *testing.T, l *Log[rec], v string) uint64 {
	t.Helper()
	seq := l.Append(rec{V: v})
	if err := l.Wait(seq); err != nil {
		t.Fatalf("wait for %q (seq %d): %v", v, seq, err)
	}
	return seq
}

// replayed reopens path and returns every record it holds.
func replayed(t *testing.T, path string) []rec {
	t.Helper()
	var got []rec
	if _, _, err := Replay(path, recSeq, func(r rec) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendWaitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "log.jsonl")
	l := open(t, path, Config[rec]{})
	if !l.Durable() {
		t.Fatal("file-backed log should be durable")
	}
	for i := 1; i <= 3; i++ {
		if seq := ack(t, l, fmt.Sprint("r", i)); seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(3); err != nil {
		t.Fatalf("wait for a committed record after Close: %v", err)
	}
	if err := l.Wait(4); !errors.Is(err, errClosed) {
		t.Fatalf("wait for a record never written: %v, want errClosed", err)
	}

	var got []rec
	l2 := open(t, path, Config[rec]{Replay: func(r rec) error { got = append(got, r); return nil }})
	if len(got) != 3 || got[0] != (rec{1, "r1"}) || got[2] != (rec{3, "r3"}) {
		t.Fatalf("replayed %+v", got)
	}
	if seq := l2.Append(rec{V: "r4"}); seq != 4 {
		t.Fatalf("append after reopen assigned seq %d, want 4", seq)
	}
}

func TestInMemoryLog(t *testing.T) {
	l := open(t, "", Config[rec]{})
	for i := 1; i <= 2; i++ {
		if seq := ack(t, l, "m"); seq != uint64(i) {
			t.Fatalf("in-memory seq %d, want %d", seq, i)
		}
	}
	if l.Durable() || l.File() != nil || l.Seq() != 2 {
		t.Fatalf("in-memory log: durable %v, file %v, seq %d", l.Durable(), l.File(), l.Seq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailSweep cuts a log at every offset inside its final record,
// from just after the previous newline to just before its own, then
// restarts twice with an acknowledged record in between. The torn final
// record must be dropped, and every acknowledged record, including the
// one written after the first restart, must survive the second. Keeping
// a torn line that happens to parse, and appending after it, would merge
// the new record into that line and lose it on the second restart.
func TestTornTailSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path, Config[rec]{})
	for i := 1; i <= 3; i++ {
		ack(t, l, fmt.Sprint("r", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1

	for cut := lastStart; cut <= len(full); cut++ {
		p := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := []rec{{1, "r1"}, {2, "r2"}}
		if cut == len(full) {
			want = append(want, rec{3, "r3"})
		}
		last, truncateTo, err := Replay(p, recSeq, nil)
		if err != nil || last != uint64(len(want)) {
			t.Fatalf("cut %d: replay last %d, err %v", cut, last, err)
		}
		if torn := cut > lastStart && cut < len(full); torn != (truncateTo == int64(lastStart)) || !torn && truncateTo != -1 {
			t.Fatalf("cut %d: truncateTo %d", cut, truncateTo)
		}

		// Restart 1: the torn record is gone and a new one is acknowledged.
		l := open(t, p, Config[rec]{})
		seq := ack(t, l, "after")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec{seq, "after"})

		// Restart 2: every acknowledged record replays, on its own line.
		if got := replayed(t, p); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: second restart replayed %v, want %v", cut, got, want)
		}
	}
}

func TestCorruptionRefused(t *testing.T) {
	good := `{"seq":1,"v":"a"}` + "\n" + `{"seq":2,"v":"b"}` + "\n"
	for name, body := range map[string]string{
		"mid-file garbage":        `{"seq":1,"v":"a"}` + "\n" + `{"seq":2,"v` + "\n" + `{"seq":3,"v":"c"}` + "\n",
		"terminated final line":   good + `{"seq":3,"v` + "\n",
		"sequence regressed":      good + `{"seq":2,"v":"c"}` + "\n",
		"no sequence number":      `{"v":"a"}` + "\n",
		"blank terminated line":   good + "\n",
		"missing sequence at end": good + `{"v":"c"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Replay(path, recSeq, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("replay: %v, want a corruption error", err)
			}
			if _, err := Open(path, Config[rec]{Seq: recSeq}); err == nil {
				t.Fatal("Open accepted a corrupt log")
			}
		})
	}
}

// TestGroupCommit runs concurrent appenders and checks that batches
// account for every record exactly once and that replay is contiguous.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var records, batches int // written by the committer, read after Close
	l := open(t, path, Config[rec]{
		NoSync: true,
		AfterBatch: func(b Batch) bool {
			records += b.Records
			batches++
			return false
		},
	})
	const writers, each = 32, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := l.Append(rec{V: fmt.Sprint(w)})
				if err := l.Wait(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if records != writers*each {
		t.Fatalf("batches carried %d records, want %d", records, writers*each)
	}
	t.Logf("%d records in %d batches", records, batches)
	got := replayed(t, path)
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

// TestFailStop breaks the file under a live log: the batch fails, and so
// does every later record, until a restart replays what was durable.
func TestFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path, Config[rec]{})
	ack(t, l, "kept")
	if err := l.File().Close(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"lost", "refused"} {
		seq := l.Append(rec{V: v})
		if err := l.Wait(seq); !errors.Is(err, ErrBroken) {
			t.Fatalf("wait for %q: %v, want ErrBroken", v, err)
		}
	}
	if l.Durable() {
		t.Fatal("a stopped log must not report durable")
	}
	if err := l.Close(); !errors.Is(err, ErrBroken) {
		t.Fatalf("close: %v, want ErrBroken", err)
	}
	if got := replayed(t, path); len(got) != 1 || got[0].V != "kept" {
		t.Fatalf("replayed %+v, want only the acknowledged record", got)
	}
}

// TestCheckpointTruncates: AfterBatch returning true empties the file
// between batches, and a reopen with the checkpoint as After keeps
// numbering above it, skipping records the checkpoint covers.
func TestCheckpointTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path, Config[rec]{})
	for i := 1; i <= 5; i++ {
		ack(t, l, fmt.Sprint("r", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash between writing a checkpoint at 3 and truncating: the
	// file still holds 1..5, and replay skips what the checkpoint covers.
	var got []uint64
	l = open(t, path, Config[rec]{After: 3, Replay: func(r rec) error { got = append(got, r.Seq); return nil }})
	if fmt.Sprint(got) != "[4 5]" {
		t.Fatalf("replay above checkpoint 3: %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	truncated := false
	l = open(t, path, Config[rec]{
		AfterBatch: func(Batch) bool {
			if truncated {
				return false
			}
			truncated = true
			return true
		},
	})
	ack(t, l, "r6") // its batch is checkpointed, then the file emptied
	ack(t, l, "r7")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, path); len(got) != 1 || got[0] != (rec{7, "r7"}) {
		t.Fatalf("after truncation the log holds %+v, want only seq 7", got)
	}

	// An emptied log reopened behind a checkpoint numbers above it.
	l = open(t, path, Config[rec]{After: 9})
	if seq := l.Append(rec{V: "r10"}); seq != 10 {
		t.Fatalf("append above checkpoint 9 assigned seq %d", seq)
	}
}
