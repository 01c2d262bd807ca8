// Package audit records one durable event per ε-bearing decision the
// server makes, so an operator can reconstruct every analyst's privacy
// spend independently of the ledger.
//
// The trail is its own append-only JSONL file, audit.jsonl, kept apart
// from the ledger WAL on purpose, but written by the same package wal
// log: events are group-committed (one write + one fsync per batch of
// concurrent appends), a torn final line is truncated on open, and
// corruption anywhere else refuses to open rather than silently drop
// spend history. Append itself never blocks on the disk; Sync is the
// acknowledgement barrier: once it returns nil, every earlier event
// survives a crash.
//
// A fixed-size in-memory ring of recent events backs the
// /admin/audit endpoint whether or not a directory is configured, so
// the query hot path pays the same O(1) cost either way.
package audit

import (
	"path/filepath"
	"sync"
	"time"

	"osdp/internal/telemetry"
	"osdp/internal/wal"
)

// Outcomes of an ε-bearing decision. The invariant mirrors the
// ledger's: recorded spend only ever errs high. Reconstructed spend is
// the sum of Eps over "released" and "retained" events.
const (
	// OutcomeReleased: the mechanism ran and the answer was returned;
	// ε stands.
	OutcomeReleased = "released"
	// OutcomeRetained: the mechanism failed after randomness was
	// observed; no answer was returned but ε stands.
	OutcomeRetained = "retained"
	// OutcomeRefunded: the session accountant rejected the query
	// before noise was drawn; the ledger charge was refunded.
	OutcomeRefunded = "refunded"
	// OutcomeDenied: the ledger refused the charge; nothing was spent.
	OutcomeDenied = "denied"
)

// Event is one ε-bearing decision. Field names and JSON keys are a
// stable schema (pinned by a golden test): external consumers parse
// the JSONL trail.
type Event struct {
	// Seq is the append-order sequence number, contiguous from 1.
	Seq uint64 `json:"seq"`
	// Time is when the decision was recorded (UTC).
	Time time.Time `json:"time"`
	// RequestID correlates the event with the request trace and
	// access log ("" for requests without an ID).
	RequestID string `json:"request_id,omitempty"`
	// Analyst is the authenticated analyst ID ("" on ledger-less
	// servers).
	Analyst string `json:"analyst,omitempty"`
	// Dataset is the dataset charged against.
	Dataset string `json:"dataset"`
	// Session is the session the query ran in.
	Session string `json:"session,omitempty"`
	// Kind is the query kind ("histogram", "workload", ...).
	Kind string `json:"kind"`
	// Eps is the ε the decision concerned.
	Eps float64 `json:"eps"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
}

// logFile is the JSONL file name inside the configured directory.
const logFile = "audit.jsonl"

// Config configures Open.
type Config struct {
	// Dir is the directory holding audit.jsonl. Empty means
	// in-memory only: events are served from the ring but do not
	// survive a restart.
	Dir string
	// RingSize caps the in-memory ring of recent events served by
	// Recent (default 1024).
	RingSize int
	// Telemetry registers audit metrics when non-nil.
	Telemetry *telemetry.Registry
}

// Log is the append-only audit trail: a package wal log of Events plus
// a ring of recent ones. A nil *Log is the disabled log: Append and Sync
// are no-ops.
type Log struct {
	w   *wal.Log[Event]
	met auditMetrics

	mu     sync.Mutex // orders ring slots with sequence numbers
	closed bool
	ring   []Event
	ringN  int // events currently in the ring
	ringAt int // next slot to write
}

// auditMetrics bundles the audit instruments; the zero value is the
// disabled state.
type auditMetrics struct {
	events *telemetry.Counter
	fsync  *telemetry.Histogram
}

func newAuditMetrics(r *telemetry.Registry) auditMetrics {
	if r == nil {
		return auditMetrics{}
	}
	return auditMetrics{
		events: r.NewCounter("osdp_audit_events_total",
			"Privacy-audit events recorded (one per ε-bearing decision)."),
		fsync: r.NewHistogram("osdp_audit_fsync_seconds",
			"Latency of one audit-log group-commit fsync.", nil),
	}
}

// eventSeq points the log at an Event's sequence number.
func eventSeq(e *Event) *uint64 { return &e.Seq }

// Open loads (replaying and truncating a torn tail) or creates the
// audit log. With an empty Dir the log is in-memory only.
func Open(cfg Config) (*Log, error) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	l := &Log{met: newAuditMetrics(cfg.Telemetry), ring: make([]Event, cfg.RingSize)}
	var path string
	if cfg.Dir != "" {
		path = filepath.Join(cfg.Dir, logFile)
	}
	w, err := wal.Open(path, wal.Config[Event]{
		Seq:    eventSeq,
		Replay: func(e Event) error { l.ringStore(e); return nil },
		AfterBatch: func(b wal.Batch) bool {
			l.met.fsync.ObserveDuration(b.Fsync)
			return false
		},
	})
	if err != nil {
		return nil, err
	}
	l.w = w
	return l, nil
}

// ringStore writes e into the recent-events ring. Caller holds l.mu
// (or has exclusive access during Open).
func (l *Log) ringStore(e Event) {
	l.ring[l.ringAt] = e
	l.ringAt = (l.ringAt + 1) % len(l.ring)
	if l.ringN < len(l.ring) {
		l.ringN++
	}
}

// Append records one event, assigning its sequence number and (if
// unset) timestamp, and returns the sequence number. It never blocks
// on the disk: durability happens on the log's committer goroutine,
// and Sync is the barrier that observes it. No-op (returning 0) on a
// nil or closed log.
func (l *Log) Append(e Event) uint64 {
	if l == nil {
		return 0
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0
	}
	e.Seq = l.w.Append(e)
	l.ringStore(e)
	l.mu.Unlock()
	l.met.events.Inc()
	return e.Seq
}

// Sync blocks until every event appended before the call is durable.
// It is the acknowledgement barrier: after Sync returns nil, a crash
// loses none of those events. In-memory logs return immediately.
func (l *Log) Sync() error {
	if l == nil {
		return nil
	}
	return l.w.Wait(l.w.Seq())
}

// Close flushes pending events, stops the committer, and closes the
// file. Safe on nil.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return l.w.Close()
}

// Durable reports whether the log is backed by a directory (and has
// not broken). False for nil and in-memory logs.
func (l *Log) Durable() bool {
	return l != nil && l.w.Durable()
}

// Seq returns the last assigned sequence number (total events ever
// appended, including replayed history).
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.w.Seq()
}

// Filter selects events from the in-memory ring. Zero fields match
// everything.
type Filter struct {
	// Analyst keeps only events for this analyst ID.
	Analyst string
	// Since keeps only events at or after this time.
	Since time.Time
	// Until keeps only events at or before this time.
	Until time.Time
	// Limit caps the number of events returned (0 = no cap).
	Limit int
}

// Recent returns matching events from the ring, newest first. Nil log
// returns nil.
func (l *Log) Recent(f Filter) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for i := 0; i < l.ringN; i++ {
		// Walk backwards from the most recently written slot.
		at := (l.ringAt - 1 - i + 2*len(l.ring)) % len(l.ring)
		e := l.ring[at]
		if f.Analyst != "" && e.Analyst != f.Analyst {
			continue
		}
		if !f.Since.IsZero() && e.Time.Before(f.Since) {
			continue
		}
		if !f.Until.IsZero() && e.Time.After(f.Until) {
			continue
		}
		out = append(out, e)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Replay reads every event in dir's audit log in order, calling fn for
// each. It returns the last sequence number seen and, when the final
// line is torn (crash mid-write), the byte offset the file should be
// truncated to (-1 when intact). Corruption anywhere else is an error:
// audit history must not silently lose ε events. A missing file replays
// zero events.
func Replay(dir string, fn func(Event) error) (lastSeq uint64, truncateTo int64, err error) {
	return wal.Replay(filepath.Join(dir, logFile), eventSeq, fn)
}
