package lint_test

import (
	"go/token"
	"path/filepath"
	"testing"

	"osdp/internal/lint"
	"osdp/internal/lint/analysis"
	"osdp/internal/lint/analysistest"
)

// fixtures returns the testdata/src root for one analyzer's fixture
// tree.
func fixtures(analyzer string) string {
	return filepath.Join("testdata", "src", analyzer)
}

func TestLockedRand(t *testing.T) {
	analysistest.Run(t, fixtures("lockedrand"), lint.LockedRand,
		"osdp/internal/core",
		"osdp/internal/noise",
		"osdp/internal/ledger",
	)
}

func TestChargeBeforeNoise(t *testing.T) {
	analysistest.Run(t, fixtures("chargebeforenoise"), lint.ChargeBeforeNoise,
		"osdp/internal/core",
		"osdp/internal/server",
	)
}

func TestNilSafeTelemetry(t *testing.T) {
	analysistest.Run(t, fixtures("nilsafetelemetry"), lint.NilSafeTelemetry,
		"osdp/internal/telemetry",
	)
}

func TestFsyncUnderLock(t *testing.T) {
	analysistest.Run(t, fixtures("fsyncunderlock"), lint.FsyncUnderLock,
		"osdp/internal/ledger",
		"osdp/internal/wal",
	)
}

func TestSecretFlow(t *testing.T) {
	analysistest.Run(t, fixtures("secretflow"), lint.SecretFlow,
		"osdp/internal/server",
	)
}

func TestCtxPropagate(t *testing.T) {
	analysistest.Run(t, fixtures("ctxpropagate"), lint.CtxPropagate,
		"osdp/internal/server",
	)
}

func TestDocComment(t *testing.T) {
	analysistest.Run(t, fixtures("doccomment"), lint.DocComment,
		"osdp/internal/dataset",
	)
}

// TestMalformedIgnores checks that a //lint:ignore directive without a
// reason is itself reported, and a well-formed one is not.
func TestMalformedIgnores(t *testing.T) {
	fset := token.NewFileSet()
	dir := filepath.Join(fixtures("lintdirective"), "osdp", "internal", "server")
	pkg, err := analysis.LoadDir(fset, dir, "osdp/internal/server")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := analysis.MalformedIgnores([]*analysis.Package{pkg})
	if len(diags) != 1 {
		t.Fatalf("got %d malformed-directive diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 5 {
		t.Errorf("diagnostic at line %d, want 5 (the reason-less directive)", diags[0].Pos.Line)
	}
}

// TestByName covers the -only flag's resolver.
func TestByName(t *testing.T) {
	got, ok := lint.ByName("lockedrand, doccomment")
	if !ok || len(got) != 2 || got[0].Name != "lockedrand" || got[1].Name != "doccomment" {
		t.Fatalf("ByName resolved %v, ok=%v", got, ok)
	}
	if _, ok := lint.ByName("nosuchanalyzer"); ok {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
