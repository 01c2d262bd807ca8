// Package wal is the append-only JSONL log under both durable planes:
// the ledger's write-ahead log and the privacy-audit trail. Each keeps
// its own file and record type; the durability discipline lives here
// once.
//
// Group commit: Append numbers a record and queues it without touching
// the disk. One committer goroutine seals everything queued into a
// batch and writes it with one write and one fsync, so N concurrent
// appenders share a single fsync. Wait(seq) is the acknowledgement
// barrier: once it returns nil, record seq and every record before it
// survive a crash.
//
// Torn-tail rule: a crash mid-write can only leave an unterminated
// final line. That line, and only that line, is torn: its record was
// never acknowledged, so dropping it never loses acknowledged history.
// Open truncates it before reopening the file for append, so the next
// record starts on a line of its own. A newline-terminated line that
// does not parse, or whose sequence number does not strictly increase,
// is corruption, and Open refuses the file.
//
// Fail-stop: a batch that cannot be made durable stops the log. A short
// write is first truncated back, so the file ends where the last
// durable batch did; a failed fsync, or a truncation that itself fails,
// leaves nothing that can vouch for the file. Either way every waiter
// and every later Wait get an ErrBroken error until a restart replays
// the file. A single watermark therefore answers every Wait: the log is
// durable up to some sequence number and nothing past it.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ErrBroken marks a log that stopped after a batch failed to become
// durable. Restart to replay the file and recover.
var ErrBroken = errors.New("wal: log stopped after a write failure; restart to recover")

// errClosed reports a Wait for a record the closed log never wrote.
var errClosed = errors.New("wal: log closed")

// Batch describes one durable batch to Config.AfterBatch.
type Batch struct {
	Records int           // records in the batch
	Write   time.Duration // encode, write and fsync
	Fsync   time.Duration // the fsync alone; 0 under NoSync
}

// Config configures Open.
type Config[R any] struct {
	// Seq points at a record's sequence-number field: Append stamps it,
	// replay checks that it strictly increases.
	Seq func(*R) *uint64
	// After is a checkpoint that already covers every record up to it
	// (the ledger's snapshot): replay skips those records, and new
	// records are numbered above it.
	After uint64
	// Replay, when non-nil, receives every record above After in file
	// order before Open returns.
	Replay func(R) error
	// AfterBatch, when non-nil, runs on the committer goroutine after
	// each durable batch, once its waiters are released and before the
	// next batch is sealed. Returning true truncates the file to empty:
	// the caller has checkpointed every record written so far.
	AfterBatch func(Batch) (truncate bool)
	// NoSync skips the per-batch fsync. Tests and throughput benchmarks
	// only: a crash can then lose acknowledged records.
	NoSync bool
}

// Log is one open append-only log of records of type R. An empty path
// gives an in-memory log: records are numbered and acknowledged at
// once, and nothing is stored.
type Log[R any] struct {
	cfg Config[R]

	mu      sync.Mutex
	seq     uint64 // last sequence number handed out
	durable uint64 // every record at or below this is on disk
	err     error  // why the log stopped: a failed batch, or Close
	closing bool
	pending []R
	waiters []waiter

	// Committer-only state; unused by in-memory logs.
	f     *os.File
	size  int64 // byte length; a failed write truncates back to it
	buf   bytes.Buffer
	enc   *json.Encoder
	spare []R // the last batch's slice, reused for the next queue

	notify chan struct{} // buffered: an Append nudges without blocking
	stop   chan struct{}
	done   chan struct{}
}

// waiter parks one Wait until its record is settled. The channel is
// buffered so the committer never blocks waking it.
type waiter struct {
	seq  uint64
	done chan error
}

// Open replays the log at path through cfg.Replay, truncates a torn
// final line, and opens the file for appending. A missing file (or
// directory) is created, and the directory entry is fsynced so a new
// log cannot vanish wholesale on power loss.
func Open[R any](path string, cfg Config[R]) (*Log[R], error) {
	l := &Log[R]{cfg: cfg, seq: cfg.After, durable: cfg.After}
	if path == "" {
		return l, nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	last, truncateTo, err := Replay(path, cfg.Seq, func(r R) error {
		if cfg.Replay == nil || *cfg.Seq(&r) <= cfg.After {
			return nil
		}
		return cfg.Replay(r)
	})
	if err != nil {
		return nil, err
	}
	if last > l.seq {
		l.seq, l.durable = last, last
	}
	if truncateTo >= 0 {
		if err := os.Truncate(path, truncateTo); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sizing %s: %w", path, err)
	}
	if err := SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.size = f, st.Size()
	l.enc = json.NewEncoder(&l.buf)
	l.notify = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go l.run()
	return l, nil
}

// Append numbers rec, queues it for the next batch, and returns its
// sequence number. It never blocks on the disk, so callers may hold
// their own mutex to make log order match their admission order. A
// record appended to a stopped log is numbered but never written; Wait
// reports why.
func (l *Log[R]) Append(rec R) uint64 {
	l.mu.Lock()
	l.seq++
	seq := l.seq
	queued := l.f != nil && l.err == nil
	if queued {
		// Stamped in the queue, not on rec: a pointer to rec would move
		// it to the heap on every call.
		l.pending = append(l.pending, rec)
		*l.cfg.Seq(&l.pending[len(l.pending)-1]) = seq
	} else if l.f == nil {
		l.durable = seq // in-memory: nothing to wait for
	}
	l.mu.Unlock()
	if queued {
		select {
		case l.notify <- struct{}{}:
		default: // committer already nudged
		}
	}
	return seq
}

// Wait blocks until record seq, and with it every earlier record, is
// durable, and returns nil; or returns the error that stopped the log
// first. In-memory logs return at once.
func (l *Log[R]) Wait(seq uint64) error {
	l.mu.Lock()
	if seq <= l.durable {
		l.mu.Unlock()
		return nil
	}
	if err := l.err; err != nil {
		l.mu.Unlock()
		return err
	}
	w := waiter{seq: seq, done: make(chan error, 1)}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	return <-w.done
}

// Seq returns the last sequence number handed out, replayed history
// included.
func (l *Log[R]) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Durable reports whether the log writes to a file and has not stopped.
func (l *Log[R]) Durable() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f != nil && l.err == nil
}

// File returns the open log file (nil for in-memory logs). Only the
// Log writes, syncs, truncates or closes it.
func (l *Log[R]) File() *os.File { return l.f }

// Close commits everything already queued, stops the committer and
// closes the file. It returns the error that stopped the log, if any.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		return nil
	}
	l.closing = true
	l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	close(l.stop)
	<-l.done
	l.mu.Lock()
	err := l.err
	if err == nil {
		l.err = errClosed
	}
	l.release()
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: closing %s: %w", l.f.Name(), cerr)
	}
	return err
}

// run is the single writer. Nudged by Append, it commits until the
// queue is empty; on Close it commits what was queued, then exits.
func (l *Log[R]) run() {
	defer close(l.done)
	for {
		select {
		case <-l.notify:
			l.commitPending()
		case <-l.stop:
			l.commitPending()
			return
		}
	}
}

// commitPending seals and commits batches until the queue is empty or
// the log stops.
func (l *Log[R]) commitPending() {
	for {
		l.mu.Lock()
		n := len(l.pending)
		l.mu.Unlock()
		if n == 0 {
			return
		}
		// One scheduler yield before sealing the batch: appenders the
		// last commit just woke get to queue their next record, so a
		// saturated core produces full batches instead of alternating
		// 1-record and (N-1)-record ones. When nothing else is runnable
		// this costs well under a microsecond.
		runtime.Gosched()
		l.mu.Lock()
		batch := l.pending
		l.pending = l.spare[:0]
		l.mu.Unlock()

		b, err := l.write(batch)
		l.mu.Lock()
		if err != nil {
			l.err = fmt.Errorf("%w: %v", ErrBroken, err)
			l.pending = nil // never written; their waiters get l.err
		} else {
			l.durable = *l.cfg.Seq(&batch[len(batch)-1])
		}
		l.release()
		l.mu.Unlock()
		clear(batch)
		l.spare = batch[:0]
		if err != nil {
			return
		}
		if l.cfg.AfterBatch != nil && l.cfg.AfterBatch(b) {
			l.truncate()
		}
	}
}

// write encodes a batch one record per line, appends it with one write
// and makes it durable with one fsync.
func (l *Log[R]) write(batch []R) (Batch, error) {
	start := time.Now()
	l.buf.Reset()
	for i := range batch {
		// Encode appends the newline, and writes nothing on failure.
		if err := l.enc.Encode(&batch[i]); err != nil {
			return Batch{}, fmt.Errorf("encoding record: %w", err)
		}
	}
	if _, err := l.f.Write(l.buf.Bytes()); err != nil {
		// Cut the batch back off: none of it was acknowledged, so the
		// file ends where the last durable batch did, with no fragment
		// and no whole records a restart would replay as if written.
		if terr := l.f.Truncate(l.size); terr != nil {
			return Batch{}, fmt.Errorf("appending to %s (%v), then truncating back: %w", l.f.Name(), err, terr)
		}
		return Batch{}, fmt.Errorf("appending to %s: %w", l.f.Name(), err)
	}
	l.size += int64(l.buf.Len())
	b := Batch{Records: len(batch)}
	if !l.cfg.NoSync {
		syncStart := time.Now()
		// After a failed fsync the kernel may have dropped dirty pages
		// without saying which, so nothing written since the last good
		// fsync can be vouched for.
		if err := l.f.Sync(); err != nil {
			return Batch{}, fmt.Errorf("syncing %s: %w", l.f.Name(), err)
		}
		b.Fsync = time.Since(syncStart)
	}
	b.Write = time.Since(start)
	return b, nil
}

// truncate empties the file once AfterBatch has checkpointed it. It
// runs between batches, so no write is in flight; appends (O_APPEND)
// then start again at offset 0 on the same handle.
func (l *Log[R]) truncate() {
	err := l.f.Truncate(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.err = fmt.Errorf("%w: truncating %s after a checkpoint: %v", ErrBroken, l.f.Name(), err)
		l.pending = nil
		l.release()
		return
	}
	l.size = 0
}

// release settles every waiter the log can now answer. Caller holds
// l.mu.
func (l *Log[R]) release() {
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		switch {
		case w.seq <= l.durable:
			w.done <- nil
		case l.err != nil:
			w.done <- l.err
		default:
			kept = append(kept, w)
		}
	}
	clear(l.waiters[len(kept):])
	l.waiters = kept
}

// Replay reads the log at path in order and calls fn (if non-nil) for
// each record. It returns the last sequence number read and, when the
// final line is torn, the byte offset to truncate the file to (-1 when
// it is intact). A missing file replays nothing.
func Replay[R any](path string, seq func(*R) *uint64, fn func(R) error) (last uint64, truncateTo int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, fmt.Errorf("wal: opening %s for replay: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var offset int64
	for n := 1; ; n++ {
		line, rerr := r.ReadBytes('\n')
		start := offset
		offset += int64(len(line))
		if rerr == io.EOF {
			if len(line) > 0 {
				return last, start, nil // torn tail
			}
			return last, -1, nil
		}
		if rerr != nil {
			return last, -1, fmt.Errorf("wal: reading %s: %w", path, rerr)
		}
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return last, -1, fmt.Errorf("wal: %s line %d is corrupt (not a torn tail): %v", path, n, err)
		}
		s := *seq(&rec)
		if s <= last {
			return last, -1, fmt.Errorf("wal: %s line %d is corrupt: sequence %d does not follow %d", path, n, s, last)
		}
		last = s
		if fn != nil {
			if err := fn(rec); err != nil {
				return last, -1, err
			}
		}
	}
}

// SyncDir fsyncs a directory so that files created or renamed in it
// are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}
