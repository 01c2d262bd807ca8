package server

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"osdp/internal/audit"
	"osdp/internal/core"
	"osdp/internal/ledger"
	"osdp/internal/telemetry"
)

// newTraceAuditServer extends newLedgerServer with the full
// observability plane: metrics, a tracer, and a durable audit trail.
func newTraceAuditServer(t *testing.T, lcfg ledger.Config, cfg Config) (*Client, *Server, *audit.Log) {
	t.Helper()
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{})
	}
	trail, err := audit.Open(audit.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trail.Close() })
	cfg.Audit = trail
	c, srv := newLedgerServer(t, "", lcfg, cfg)
	return c, srv, trail
}

// TestTraceAuditEndToEnd is the PR's acceptance test. One authenticated
// workload query, issued under a caller-chosen request id, must be
// reconstructible from the outside afterwards: the trace fetched by
// that id via /admin/traces/{id} shows the query's named phases
// (including the ledger charge and the scan), and /admin/audit holds
// exactly one matching event whose ε equals what the ledger recorded.
func TestTraceAuditEndToEnd(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 10}, Config{})
	registerPeople(t, srv, 200)
	ac, analyst := mintAnalyst(t, c, "alice", 0)
	sc, err := ac.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}

	const reqID = "00c0ffee00c0ffee"
	qctx := ContextWithRequestID(ctx, reqID)
	const eps = 0.25
	if _, err := sc.Workload(qctx, eps, EstimatorHier, nil,
		[]DomainSpec{{Attr: "Age", Lo: 0, Width: 10, Bins: 10}},
		[]RangeSpec{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 9}}); err != nil {
		t.Fatal(err)
	}

	admin := c.WithToken(adminToken)
	tr, err := admin.Trace(ctx, reqID)
	if err != nil {
		t.Fatalf("fetching own trace by request id: %v", err)
	}
	if tr.ID != reqID {
		t.Fatalf("trace id = %q, want %q", tr.ID, reqID)
	}
	if tr.Kind != KindWorkload || tr.Analyst != analyst {
		t.Fatalf("trace kind/analyst = %q/%q, want %q/%q", tr.Kind, tr.Analyst, KindWorkload, analyst)
	}
	if tr.Status != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", tr.Status)
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	if len(tr.Spans) < 5 {
		t.Fatalf("trace has %d spans, acceptance bar is >=5: %+v", len(tr.Spans), tr.Spans)
	}
	for _, want := range []string{"auth", "compile", "ledger.charge", "scan", "noise", "encode"} {
		if !names[want] {
			t.Errorf("span %q missing from trace: %+v", want, tr.Spans)
		}
	}
	// The scan span carries the pool shape attributes.
	for _, sp := range tr.Spans {
		if sp.Name == "scan" && (sp.Attrs["rows"] == "" || sp.Attrs["workers"] == "") {
			t.Errorf("scan span missing rows/workers attrs: %+v", sp)
		}
	}

	rep, err := admin.AuditEvents(ctx, AuditQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Durable {
		t.Fatalf("audit trail backed by a directory reports durable=false")
	}
	var matched []audit.Event
	for _, e := range rep.Events {
		if e.RequestID == reqID {
			matched = append(matched, e)
		}
	}
	if len(matched) != 1 {
		t.Fatalf("audit events for request %s = %d, want exactly 1: %+v", reqID, len(matched), rep.Events)
	}
	ev := matched[0]
	if ev.Outcome != audit.OutcomeReleased || ev.Analyst != analyst ||
		ev.Dataset != "people" || ev.Kind != KindWorkload || ev.Session != sc.ID() {
		t.Fatalf("audit event fields wrong: %+v", ev)
	}
	// The audited ε equals the ledger's recorded charge: a workload
	// batch charges its composed ε exactly once.
	spend, err := admin.Spend(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Eps-eps) > 1e-12 || math.Abs(spend.TotalSpent-eps) > 1e-12 {
		t.Fatalf("audit eps %g vs ledger spend %g, want both %g", ev.Eps, spend.TotalSpent, eps)
	}
}

// TestReleaseNoiseSpanAttrs pins the OsdpRR noise span on both release
// kinds: "rows" counts the non-sensitive rows that drew a keep coin
// (sensitive rows draw none) and "kept" is the release size.
func TestReleaseNoiseSpanAttrs(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 10}, Config{})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)
	info, err := ac.Dataset(ctx, "people")
	if err != nil {
		t.Fatal(err)
	}
	if info.NonSensitive == 0 || info.NonSensitive == info.Rows {
		t.Fatalf("fixture needs both partitions non-empty: %+v", info)
	}
	sc, err := ac.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	admin := c.WithToken(adminToken)
	noiseAttrs := func(reqID string) map[string]string {
		t.Helper()
		tr, err := admin.Trace(ctx, reqID)
		if err != nil {
			t.Fatalf("fetching trace %s: %v", reqID, err)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "noise" {
				return sp.Attrs
			}
		}
		t.Fatalf("trace %s has no noise span: %+v", reqID, tr.Spans)
		return nil
	}
	wantRows := strconv.Itoa(info.NonSensitive)

	const sampleID = "5a5a5a5a5a5a5a5a"
	sample, err := sc.Sample(ContextWithRequestID(ctx, sampleID), 1)
	if err != nil {
		t.Fatal(err)
	}
	attrs := noiseAttrs(sampleID)
	if attrs["rows"] != wantRows || attrs["kept"] != strconv.Itoa(sample.Len()) {
		t.Errorf("sample noise span attrs = %v, want rows=%s kept=%d", attrs, wantRows, sample.Len())
	}

	const quantileID = "9a9a9a9a9a9a9a9a"
	if _, err := sc.Quantile(ContextWithRequestID(ctx, quantileID), 1, "Age", 0.5); err != nil {
		t.Fatal(err)
	}
	attrs = noiseAttrs(quantileID)
	kept, err := strconv.Atoi(attrs["kept"])
	if attrs["rows"] != wantRows || err != nil || kept < 1 || kept > info.NonSensitive {
		t.Errorf("quantile noise span attrs = %v, want rows=%s and kept in [1, %s]", attrs, wantRows, wantRows)
	}
}

// TestSampleTraceRecordsCSVEncodeSpan pins where a sample's CSV is
// rendered: inside an "encode" span of its own, after the noise span and
// before the handler's JSON encode, so the work is attributed rather
// than left as unexplained request time. A quantile has no CSV, so its
// trace holds only the JSON encode.
func TestSampleTraceRecordsCSVEncodeSpan(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 10}, Config{})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)
	sc, err := ac.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	admin := c.WithToken(adminToken)
	spans := func(reqID, name string) []SpanInfo {
		t.Helper()
		tr, err := admin.Trace(ctx, reqID)
		if err != nil {
			t.Fatalf("fetching trace %s: %v", reqID, err)
		}
		var out []SpanInfo
		for _, sp := range tr.Spans {
			if sp.Name == name {
				out = append(out, sp)
			}
		}
		return out
	}

	const sampleID = "e7c0de00e7c0de00"
	if _, err := sc.Sample(ContextWithRequestID(ctx, sampleID), 1); err != nil {
		t.Fatal(err)
	}
	noise, encode := spans(sampleID, "noise"), spans(sampleID, "encode")
	if len(noise) != 1 || len(encode) != 2 {
		t.Fatalf("sample trace has %d noise and %d encode spans, want 1 and 2 (CSV, then JSON)", len(noise), len(encode))
	}
	csvSpan, jsonSpan := encode[0], encode[1]
	if csvSpan.OffsetMicros > jsonSpan.OffsetMicros {
		csvSpan, jsonSpan = jsonSpan, csvSpan
	}
	if end := noise[0].OffsetMicros + noise[0].DurationMicros; csvSpan.OffsetMicros < end {
		t.Errorf("CSV encode span starts at %dµs, before the noise span ends at %dµs", csvSpan.OffsetMicros, end)
	}
	if end := csvSpan.OffsetMicros + csvSpan.DurationMicros; jsonSpan.OffsetMicros < end {
		t.Errorf("JSON encode span starts at %dµs, before the CSV encode span ends at %dµs", jsonSpan.OffsetMicros, end)
	}

	const quantileID = "e7c0de01e7c0de01"
	if _, err := sc.Quantile(ContextWithRequestID(ctx, quantileID), 1, "Age", 0.5); err != nil {
		t.Fatal(err)
	}
	if n := len(spans(quantileID, "encode")); n != 1 {
		t.Errorf("quantile trace has %d encode spans, want 1", n)
	}
}

// TestAuditOutcomesOnWire drives the two refusal paths and checks each
// produces its distinct audit outcome: a pre-noise session-accountant
// rejection is "refunded" (the ledger reservation came back), a ledger
// refusal is "denied" (nothing was ever reserved).
func TestAuditOutcomesOnWire(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 1}, Config{})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)

	// Session budget 0.2 < ledger budget 1: the session accountant
	// rejects a 0.5 charge after the ledger admitted it -> refunded.
	sc, err := ac.OpenSession(ctx, "people", 0.2, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Count(ctx, 0.5, nil); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("over-session-budget count: got %v, want ErrBudgetExceeded", err)
	}
	// Now exhaust the ledger: open an unlimited session and overspend ->
	// the ledger itself refuses -> denied.
	sc2, err := ac.OpenSession(ctx, "people", 0, seed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc2.Count(ctx, 0.9, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc2.Count(ctx, 0.9, nil); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("over-ledger-budget count: got %v, want ErrBudgetExceeded", err)
	}

	rep, err := c.WithToken(adminToken).AuditEvents(ctx, AuditQuery{})
	if err != nil {
		t.Fatal(err)
	}
	byOutcome := make(map[string]int)
	var reconstructed float64
	for _, e := range rep.Events {
		byOutcome[e.Outcome]++
		if e.Outcome == audit.OutcomeReleased || e.Outcome == audit.OutcomeRetained {
			reconstructed += e.Eps
		}
	}
	if byOutcome[audit.OutcomeRefunded] != 1 || byOutcome[audit.OutcomeDenied] != 1 || byOutcome[audit.OutcomeReleased] != 1 {
		t.Fatalf("outcomes = %v, want 1 refunded, 1 denied, 1 released", byOutcome)
	}
	// Spend reconstructed from the audit trail alone agrees with the
	// ledger — the independence property the trail exists for.
	spend, err := c.WithToken(adminToken).Spend(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reconstructed-spend.TotalSpent) > 1e-12 {
		t.Fatalf("audit-reconstructed spend %g != ledger spend %g", reconstructed, spend.TotalSpent)
	}
}

// TestInboundRequestIDValidation pins the honor-or-mint contract: a
// valid 16-hex inbound X-Request-Id is echoed and used; anything else
// is replaced with a fresh id, never propagated.
func TestInboundRequestIDValidation(t *testing.T) {
	c, _, _ := newTraceAuditServer(t, ledger.Config{}, Config{})
	get := func(inbound string) string {
		req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set("X-Request-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}
	if got := get("fedcba9876543210"); got != "fedcba9876543210" {
		t.Fatalf("valid inbound id not honored: got %q", got)
	}
	for _, bad := range []string{"short", "FEDCBA9876543210", "fedcba987654321g", "fedcba98765432100", "../../../../etc"} {
		got := get(bad)
		if got == bad {
			t.Fatalf("invalid inbound id %q propagated", bad)
		}
		if !validRequestID(got) {
			t.Fatalf("minted replacement %q is not a valid id", got)
		}
	}
}

// TestClientAPIErrorRequestID is the satellite regression test: a 4xx
// from an instrumented server surfaces the request id on the APIError,
// both as a field and in the rendered message.
func TestClientAPIErrorRequestID(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 1}, Config{})
	registerPeople(t, srv, 50)
	ac, _ := mintAnalyst(t, c, "alice", 0)
	_, err := ac.Session("no-such-session").Count(ctx, 0.1, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", apiErr.Status)
	}
	if !validRequestID(apiErr.RequestID) {
		t.Fatalf("APIError.RequestID = %q, want a 16-hex id", apiErr.RequestID)
	}
	if !strings.Contains(apiErr.Error(), "(request "+apiErr.RequestID+")") {
		t.Fatalf("Error() does not carry the request id: %q", apiErr.Error())
	}
	// A caller-chosen id comes back on the error too, so a failed call
	// can be joined to its server-side trace without any hook.
	_, err = ac.Session("no-such-session").Count(ContextWithRequestID(ctx, "0123456789abcdef"), 0.1, nil)
	if !errors.As(err, &apiErr) || apiErr.RequestID != "0123456789abcdef" {
		t.Fatalf("chosen id not echoed on APIError: %v", err)
	}
}

// TestClientRequestIDHook checks the success path: WithRequestIDHook
// observes the server-assigned id of every response, since successful
// calls have no error to hang it on.
func TestClientRequestIDHook(t *testing.T) {
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 1}, Config{})
	registerPeople(t, srv, 50)
	ac, _ := mintAnalyst(t, c, "alice", 0)

	var mu sync.Mutex
	var seen []string
	hooked := ac.WithRequestIDHook(func(method, path, requestID string) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, method+" "+path+" "+requestID)
	})
	sc, err := hooked.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Count(ctx, 0.1, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("hook saw %d calls, want 2 (open + query): %v", len(seen), seen)
	}
	for _, s := range seen {
		parts := strings.Split(s, " ")
		if len(parts) != 3 || !validRequestID(parts[2]) {
			t.Fatalf("hook observation malformed: %q", s)
		}
	}
	if !strings.HasPrefix(seen[0], "POST /v1/sessions ") {
		t.Fatalf("first hook call = %q, want the session open", seen[0])
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from serving goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLogAnalystAttr pins the satellite: once auth resolves, the
// access-log line carries the analyst ID (never the key); requests that
// never authenticate log without the attribute.
func TestAccessLogAnalystAttr(t *testing.T) {
	buf := &syncBuffer{}
	cfg := Config{AccessLog: slog.New(slog.NewTextHandler(buf, nil))}
	c, srv, _ := newTraceAuditServer(t, ledger.Config{DefaultBudget: 1}, cfg)
	registerPeople(t, srv, 50)
	ac, analyst := mintAnalyst(t, c, "alice", 0)
	key := ac.token

	sc, err := ac.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Count(ctx, 0.1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	logged := buf.String()
	if strings.Contains(logged, key) {
		t.Fatalf("access log leaked the analyst API key:\n%s", logged)
	}
	var healthLine, queryLine string
	for _, line := range strings.Split(logged, "\n") {
		if strings.Contains(line, "route=\"GET /healthz\"") || strings.Contains(line, "route=GET /healthz") {
			healthLine = line
		}
		if strings.Contains(line, "query") && strings.Contains(line, "POST") {
			queryLine = line
		}
	}
	if queryLine == "" || !strings.Contains(queryLine, "analyst="+analyst) {
		t.Fatalf("authenticated query line missing analyst=%s:\n%s", analyst, logged)
	}
	if healthLine == "" {
		t.Fatalf("no /healthz access-log line:\n%s", logged)
	}
	if strings.Contains(healthLine, "analyst=") {
		t.Fatalf("unauthenticated /healthz line carries an analyst attr: %q", healthLine)
	}
}

// TestTraceAuditConcurrentScrape hammers /admin/traces and /admin/audit
// while queries, TTL evictions, and ledger WAL compactions run. Under
// -race (CI) it proves the trace rings, audit ring, and group
// committer are data-race free against live traffic.
func TestTraceAuditConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, srv, trail := newTraceAuditServer(t,
		ledger.Config{DefaultBudget: 1e9, SnapshotEvery: 8, Telemetry: reg},
		Config{Telemetry: reg, SessionTTL: 10 * time.Millisecond})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)
	admin := c.WithToken(adminToken)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sc, err := ac.OpenSession(ctx, "people", 0, seed(int64(w*1000+i)))
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				// Expiry may race the query; that is the TTL contract, not
				// a failure.
				if _, err := sc.Count(ctx, 0.1, nil); err != nil && !strings.Contains(err.Error(), "session") {
					t.Errorf("count: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Sweep()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := admin.Traces(ctx, TraceQuery{Kind: KindCount, Limit: 32}); err != nil {
			t.Errorf("traces scrape: %v", err)
			break
		}
		rep, err := admin.AuditEvents(ctx, AuditQuery{Limit: 64})
		if err != nil {
			t.Errorf("audit scrape: %v", err)
			break
		}
		if uint64(len(rep.Events)) > rep.Total {
			t.Errorf("audit scrape returned %d events but total is %d", len(rep.Events), rep.Total)
			break
		}
	}
	close(stop)
	wg.Wait()
	// Everything appended must be durable after a final barrier.
	if err := trail.Sync(); err != nil {
		t.Fatalf("final audit sync: %v", err)
	}
	if trail.Durable() != true || trail.Seq() == 0 {
		t.Fatalf("audit trail did not persist events (seq=%d)", trail.Seq())
	}
}

// TestHTTPRequestMetricZeroAlloc pins the satellite hot-path fix:
// recording a served request under an already-seen (route, status) pair
// allocates nothing — the per-request counter lookup is one atomic map
// read, not a registry lookup.
func TestHTTPRequestMetricZeroAlloc(t *testing.T) {
	m := newServerMetrics(telemetry.NewRegistry())
	// Warm the copy-on-write cache.
	m.httpRequest("POST /v1/sessions/{id}/query", http.StatusOK, time.Millisecond)
	avg := testing.AllocsPerRun(1000, func() {
		m.httpRequest("POST /v1/sessions/{id}/query", http.StatusOK, time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("httpRequest allocates %.1f times per op on the warm path, want 0", avg)
	}
}
