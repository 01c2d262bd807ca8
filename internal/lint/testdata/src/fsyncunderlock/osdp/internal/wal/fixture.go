// Package wal fixture: the group-commit log must not write or fsync
// its file while its queue mutex is held.
package wal

import (
	"os"
	"sync"
)

type log struct {
	mu      sync.Mutex
	f       *os.File
	pending [][]byte
}

// commitLocked writes the batch while appenders are locked out: every
// Append would queue behind the disk.
func (l *log) commitLocked() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range l.pending {
		_, _ = l.f.Write(rec) // want `file Write while a mutex is held`
	}
	l.pending = nil
}

// commit seals the batch under the lock and writes it after releasing.
func (l *log) commit() {
	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, rec := range batch {
		_, _ = l.f.Write(rec)
	}
	_ = l.f.Sync()
}
