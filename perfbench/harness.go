package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"osdp/internal/audit"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
	"osdp/internal/server"
	"osdp/internal/telemetry"
)

const (
	datasetName = "bench"
	// analystBudget is the ε each analyst is granted: enough that no
	// run exhausts it.
	analystBudget = 1e9
	// Settings cmd/osdp-server ships: its -ttl and -default-analyst-eps
	// defaults, and its HTTP server timeouts.
	sessionTTL        = 30 * time.Minute
	defaultAnalystEps = 1.0
	requestTimeout    = time.Minute
	// sessionQueries is how many queries an analyst's session is opened
	// with budget for. The server's per-response budget report costs
	// time linear in the session's charge count, so a fixed session
	// length keeps that cost the same in every run instead of growing
	// with however many queries a run manages; when a session's budget
	// is spent the analyst closes it and opens the next. Longer
	// sessions make that report, and the garbage it leaves, a larger
	// and more variable share of each query.
	sessionQueries = 500
)

// sessionBudget covers sessionQueries charges of eps with room for the
// rounding of their sum.
const sessionBudget = (sessionQueries + 0.5) * eps

// stack is one running instance of the configuration cmd/osdp-server
// ships with a ledger: secure (unseeded) sessions, an fsync'd ledger
// and audit trail in dir, the telemetry registry, the default tracer,
// and an access log written to a file in dir, served over loopback
// HTTP. Admission control stays off, as it is by default.
type stack struct {
	dir       string
	led       *ledger.Ledger
	aud       *audit.Log
	accessLog *os.File
	tracer    *telemetry.Tracer
	srv       *server.Server
	hs        *http.Server
	served    chan error
	base      string
	scraper   *http.Client
	analysts  []*analyst
	phases    setupPhases
}

// setupPhases times a set-up's calls into the ledger, the audit trail
// and the dataset registry.
type setupPhases struct {
	ledgerOpen, auditOpen, register time.Duration
	createAnalyst                   time.Duration // per analyst
}

// openStack brings the stack up and opens one session per analyst; its
// whole duration is one set-up. On error it tears down what it built.
func openStack(ctx context.Context, dir string, tbl *dataset.Table, analysts int) (st *stack, err error) {
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	reg := telemetry.NewRegistry()
	dataset.SetScanMetrics(dataset.NewScanMetrics(reg))
	start := time.Now()
	if st.led, err = ledger.Open(ledger.Config{
		Dir:           filepath.Join(dir, "ledger"),
		DefaultBudget: defaultAnalystEps,
		Telemetry:     reg,
	}); err != nil {
		return st, fmt.Errorf("opening ledger: %w", err)
	}
	st.phases.ledgerOpen = time.Since(start)
	start = time.Now()
	if st.aud, err = audit.Open(audit.Config{Dir: filepath.Join(dir, "audit"), Telemetry: reg}); err != nil {
		return st, fmt.Errorf("opening audit trail: %w", err)
	}
	st.phases.auditOpen = time.Since(start)
	if st.accessLog, err = os.Create(filepath.Join(dir, "access.log")); err != nil {
		return st, err
	}
	st.tracer = telemetry.NewTracer(telemetry.TracerConfig{
		RingSize:      telemetry.DefaultTraceRing,
		SlowThreshold: telemetry.DefaultSlowThreshold,
	})
	adminToken, err := randomHex(16)
	if err != nil {
		return st, err
	}
	st.srv = server.New(server.Config{
		SessionTTL: sessionTTL,
		Ledger:     st.led,
		AdminToken: adminToken,
		Telemetry:  reg,
		AccessLog:  slog.New(slog.NewTextHandler(st.accessLog, nil)),
		Tracer:     st.tracer,
		Audit:      st.aud,
	})
	st.srv.StartJanitor(sessionTTL / 4)

	policy, err := server.CompilePolicy(policySpec, tbl.Schema())
	if err != nil {
		return st, err
	}
	start = time.Now()
	if err := st.srv.RegisterTable(datasetName, tbl, policy); err != nil {
		return st, err
	}
	st.phases.register = time.Since(start)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.hs = &http.Server{
		Handler:           st.srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.scraper = &http.Client{Transport: &http.Transport{}}

	for i := range analysts {
		start = time.Now()
		info, key, err := st.led.CreateAnalyst(fmt.Sprintf("analyst-%d", i), 0)
		if err != nil {
			return st, err
		}
		st.phases.createAnalyst += time.Since(start) / time.Duration(analysts)
		if err := st.led.SetBudget(info.ID, datasetName, analystBudget); err != nil {
			return st, err
		}
		a := newAnalyst(i, info.ID, st.base, key)
		st.analysts = append(st.analysts, a)
		if err := a.openSession(ctx); err != nil {
			return st, err
		}
	}
	return st, nil
}

// close stops the HTTP server, waits for it, and releases everything
// the stack holds, including its directory.
func (st *stack) close() {
	if st.hs != nil {
		_ = st.hs.Close() // no requests are in flight between runs
		<-st.served
	}
	for _, a := range st.analysts {
		a.hc.CloseIdleConnections()
	}
	if st.scraper != nil {
		st.scraper.CloseIdleConnections()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.led != nil {
		_ = st.led.Close()
	}
	if st.aud != nil {
		_ = st.aud.Close()
	}
	if st.accessLog != nil {
		_ = st.accessLog.Close()
	}
	_ = os.RemoveAll(st.dir)
}

// verifySpend checks the durable accounting against the queries the
// analysts saw succeed: each ledger account holds exactly that many
// charges of eps, and the audit trail's released+retained ε, read back
// from disk after a Sync, equals the ledger's total.
func (st *stack) verifySpend(charged []int) error {
	for i, a := range st.analysts {
		acct, err := st.led.Account(a.id, datasetName)
		if err != nil {
			return err
		}
		want := float64(charged[i]) * eps
		if acct.Charges != uint64(charged[i]) || !near(acct.Spent, want) {
			return fmt.Errorf("analyst %d: ledger holds %d charges, %.12g ε; %d queries succeeded, %.12g ε",
				i, acct.Charges, acct.Spent, charged[i], want)
		}
	}
	if err := st.aud.Sync(); err != nil {
		return fmt.Errorf("syncing the audit trail: %w", err)
	}
	var audited float64
	if _, _, err := audit.Replay(filepath.Join(st.dir, "audit"), func(e audit.Event) error {
		if e.Outcome == audit.OutcomeReleased || e.Outcome == audit.OutcomeRetained {
			audited += e.Eps
		}
		return nil
	}); err != nil {
		return err
	}
	if spent := st.led.TotalSpent(); !near(audited, spent) {
		return fmt.Errorf("audit trail holds %.12g ε released or retained; the ledger spent %.12g ε", audited, spent)
	}
	return nil
}

// near compares ε totals to 1e-9, relative to their size once it
// exceeds 1.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randomHex(n int) (string, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return "", err
	}
	return hex.EncodeToString(b), nil
}

// analyst is one closed-loop caller on its own keep-alive connection.
type analyst struct {
	index  int
	id     string
	hc     *http.Client
	body   *countingTransport
	client *server.Client
	sess   *server.SessionClient
	left   int    // queries the session has budget for
	ids    uint64 // request ids handed out
}

func newAnalyst(index int, id, base, key string) *analyst {
	body := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	hc := &http.Client{Transport: body}
	return &analyst{
		index:  index,
		id:     id,
		hc:     hc,
		body:   body,
		client: server.NewClient(base, hc).WithToken(key).WithTimeout(requestTimeout),
	}
}

// openSession opens a secure (unseeded) session for the next
// sessionQueries queries.
func (a *analyst) openSession(ctx context.Context) error {
	sess, err := a.client.OpenSession(ctx, datasetName, sessionBudget, nil)
	if err != nil {
		return fmt.Errorf("opening a session: %w", err)
	}
	a.sess, a.left = sess, sessionQueries
	return nil
}

// renewSession closes a spent session and opens the next.
func (a *analyst) renewSession(ctx context.Context) error {
	if _, err := a.sess.Close(ctx); err != nil {
		return fmt.Errorf("closing a spent session: %w", err)
	}
	return a.openSession(ctx)
}

// nextID returns a request id no other request of the run uses, in the
// 16-hex form the server honours.
func (a *analyst) nextID() string {
	a.ids++
	return fmt.Sprintf("%02x%014x", a.index, a.ids)
}

// call sends req through the SessionClient method for its kind.
func (a *analyst) call(ctx context.Context, m *mix, req request) (answer, error) {
	var ans answer
	var err error
	switch req.kind {
	case server.KindCount:
		var where *server.PredicateSpec
		if req.pred >= 0 {
			where = &m.preds[req.pred].spec
		}
		ans.value, err = a.sess.Count(ctx, eps, where)
	case server.KindHistogram:
		ans.resp, err = a.sess.Histogram(ctx, eps, nil, m.shapes[req.shape]...)
	case server.KindWorkload:
		ans.resp, err = a.sess.Workload(ctx, eps, req.est, nil, m.shapes[req.shape], req.ranges)
	case server.KindQuantile:
		ans.value, err = a.sess.Quantile(ctx, eps, "Score", req.q)
	case server.KindSample:
		ans.sample, err = a.sess.Sample(ctx, eps)
	default:
		err = fmt.Errorf("unknown kind %q", req.kind)
	}
	return ans, err
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

// CloseIdleConnections lets http.Client close the wrapped transport's
// idle connections.
func (c *countingTransport) CloseIdleConnections() { c.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tally is what one or more closed-loop windows observed.
type tally struct {
	attempted int
	failed    int
	charged   []int // successful queries per analyst
	samples   []sample
	acc       accuracy
	problems  []string // correctness violations and request errors, capped
	traces    []breakdown
	missed    int // traced queries whose trace was not found
}

const maxProblems = 5

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.charged == nil {
		t.charged = make([]int, len(o.charged))
	}
	for i, c := range o.charged {
		t.charged[i] += c
	}
	t.samples = append(t.samples, o.samples...)
	t.acc.merge(o.acc)
	for _, p := range o.problems {
		t.problem("%s", p)
	}
	t.traces = append(t.traces, o.traces...)
	t.missed += o.missed
}

// loop is one analyst's closed loop: send, wait for the answer, check
// it, repeat until the deadline. With traced set it also chooses each
// request's id and fetches the server's trace for it.
func (a *analyst) loop(ctx context.Context, m *mix, tr *truth, s *stream, until time.Time, tracer *telemetry.Tracer, out *tally) {
	for time.Now().Before(until) {
		if a.left == 0 {
			if err := a.renewSession(ctx); err != nil {
				out.problem("analyst %d: %v", a.index, err)
				return
			}
		}
		a.left--
		req := s.next()
		qctx := ctx
		var id string
		if tracer != nil {
			id = a.nextID()
			qctx = server.ContextWithRequestID(ctx, id)
		}
		before := a.body.bytes.Load()
		start := time.Now()
		ans, err := a.call(qctx, m, req)
		end := time.Now()
		rtt := end.Sub(start)
		out.attempted++
		if err != nil {
			out.failed++
			out.samples = append(out.samples, sample{end: end, rtt: math.Inf(1)})
			out.problem("analyst %d %s: %v", a.index, req.kind, err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		out.charged[a.index]++
		out.samples = append(out.samples, sample{end: end, rtt: ms(rtt)})
		if err := check(tr, req, ans, &out.acc); err != nil {
			out.problem("analyst %d: %v", a.index, err)
		}
		if tracer != nil {
			if v, ok := findTrace(tracer, id); ok {
				out.traces = append(out.traces, attribute(req.kind, rtt, v, a.body.bytes.Load()-before))
			} else {
				out.missed++
			}
		}
	}
}

// window runs every analyst's loop for d and returns what they saw and
// the wall time until the last answer arrived.
func (st *stack) window(ctx context.Context, m *mix, tr *truth, streams []*stream, d time.Duration, traced bool) (*tally, time.Duration) {
	var tracer *telemetry.Tracer
	if traced {
		tracer = st.tracer
	}
	parts := make([]tally, len(st.analysts))
	for i := range parts {
		parts[i].charged = make([]int, len(st.analysts))
	}
	var wg sync.WaitGroup
	start := time.Now()
	until := start.Add(d)
	for i, a := range st.analysts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.loop(ctx, m, tr, streams[i], until, tracer, &parts[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := &tally{}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out, elapsed
}
