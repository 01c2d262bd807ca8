package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"osdp/internal/wal"
)

// Durable layout inside Config.Dir:
//
//	wal.jsonl      append-only log (package wal), one JSON record per line
//	snapshot.json  periodic compaction of everything up to Seq
//
// Every record carries a strictly increasing sequence number. A snapshot
// stores the sequence of the last record it folds in; replay applies the
// snapshot and then only WAL records with a HIGHER sequence, so the
// crash window between "snapshot renamed into place" and "WAL
// truncated" cannot double-count a charge. The torn-tail and corruption
// rules are package wal's.

const (
	walFile      = "wal.jsonl"
	snapshotFile = "snapshot.json"
)

// record is the single WAL record shape; Kind selects which fields are
// meaningful. One flat struct keeps the append path free of interface
// dispatch and reflection surprises.
type record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "analyst" | "disable" | "budget" | "charge" | "refund"

	// analyst / disable
	ID      string `json:"id,omitempty"`
	Name    string `json:"name,omitempty"`
	KeyHash string `json:"key_sha256,omitempty"`
	// omitzero, not omitempty: omitempty never drops a struct, and this
	// field rides every hot-path charge record.
	Created    time.Time `json:"created,omitzero"`
	Disabled   bool      `json:"disabled,omitempty"`
	SessionCap int       `json:"session_cap,omitempty"`

	// budget / charge / refund
	Analyst string  `json:"analyst,omitempty"`
	Dataset string  `json:"dataset,omitempty"`
	Budget  float64 `json:"budget,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Policy  string  `json:"policy,omitempty"`
}

// snapshot is the compacted state: everything the WAL said up to and
// including Seq. Per-account spend is aggregated per policy name, so a
// snapshot's size is bounded by (analysts × datasets × policies), not by
// query count.
type snapshot struct {
	Seq      uint64        `json:"seq"`
	Analysts []snapAnalyst `json:"analysts"`
	Accounts []snapAccount `json:"accounts"`
}

type snapAnalyst struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	KeyHash    string    `json:"key_sha256"`
	Created    time.Time `json:"created"`
	Disabled   bool      `json:"disabled,omitempty"`
	SessionCap int       `json:"session_cap,omitempty"`
}

type snapAccount struct {
	Analyst string  `json:"analyst"`
	Dataset string  `json:"dataset"`
	Budget  float64 `json:"budget,omitempty"`
	// Explicit distinguishes an operator grant from the config default;
	// a default-budget account is re-resolved against the CURRENT
	// Config.DefaultBudget on open, so tightening the default applies
	// to every non-granted account regardless of snapshot timing.
	Explicit bool               `json:"explicit,omitempty"`
	Charges  uint64             `json:"charges"`
	Spent    map[string]float64 `json:"spent"` // policy name -> Σε
}

// writeSnapshot atomically replaces snapshot.json: write a temp file,
// fsync it, rename it into place, fsync the directory. The caller then
// truncates the WAL; a crash before that is safe, because replay skips
// WAL records at or below snap.Seq.
func writeSnapshot(dir string, snap snapshot) error {
	body, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("ledger: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(append(body, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("ledger: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ledger: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		return fmt.Errorf("ledger: installing snapshot: %w", err)
	}
	// The rename must be durable BEFORE the WAL is truncated: a crash
	// that persisted the truncation but not the rename would replay the
	// OLD snapshot against an empty WAL, under-counting acknowledged
	// spend.
	return wal.SyncDir(dir)
}

// loadSnapshot reads snapshot.json; a missing file is a fresh ledger.
func loadSnapshot(dir string) (snapshot, error) {
	var snap snapshot
	body, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return snap, nil
	}
	if err != nil {
		return snap, fmt.Errorf("ledger: reading snapshot: %w", err)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("ledger: snapshot %s is corrupt: %w", filepath.Join(dir, snapshotFile), err)
	}
	return snap, nil
}
