package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestShortWriteTruncatedBack provokes a real short write by lowering
// the file-size limit just above the log's current size (Go ignores
// SIGXFSZ, so the write returns EFBIG after a partial write). The log
// must cut the fragment back off and stop, leaving the file exactly as
// the last acknowledged batch left it.
func TestShortWriteTruncatedBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := open(t, path, Config[rec]{NoSync: true})
	ack(t, l, "kept")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = uint64(before.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	seq := l.Append(rec{V: strings.Repeat("x", 100)})
	err = l.Wait(seq)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, ErrBroken) || !strings.Contains(err.Error(), "file too large") {
		t.Fatalf("short write: %v, want ErrBroken from EFBIG", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("file is %d bytes after the failed batch, want %d (truncated back)", after.Size(), before.Size())
	}
	if err := l.Close(); !errors.Is(err, ErrBroken) {
		t.Fatalf("close: %v", err)
	}
	if got := replayed(t, path); len(got) != 1 || got[0].V != "kept" {
		t.Fatalf("replayed %+v, want only the acknowledged record", got)
	}
}
