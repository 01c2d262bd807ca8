// Command perfbench is the repository's end-to-end benchmark. It runs
// the real server.Handler over loopback HTTP in the configuration
// cmd/osdp-server ships with a ledger (secure sessions, an fsync'd
// ledger and audit trail, telemetry, the default tracer and an access
// log, admission off) and drives it with closed-loop analysts, each on
// its own keep-alive connection. Every answer is checked against the
// truth the benchmark computes from its own generated table.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload scan-heavy --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// per-layer metrics: it fetches the server's own request spans by a
// request id the benchmark chose, takes deltas of /metrics counters,
// and alternates traced and untraced windows to price the tracing.
// --workload all runs every workload both ways. The last line of
// standard output is the result as JSON; the exit code is non-zero
// when a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"osdp/internal/dataset"
	"osdp/internal/server"
)

const (
	// analysts is the number of closed-loop callers: one per CPU of
	// the 2-CPU machine the benchmark was sized on.
	analysts = 2
	// warmup runs before measuring, so caches fill first.
	warmup = time.Second
	// e2eWindows splits an end-to-end run into windows of equal
	// length; throughput is the median of their rates, and latency
	// percentiles the median of theirs. At 40 s a window is 8 s, long
	// enough to hold the service's periodic work (ledger snapshots,
	// session renewals) several times over.
	e2eWindows = 5
	// traceRounds is the number of untraced+traced window pairs of a
	// traced run.
	traceRounds = 10
	// unattributedFlag is the share of RTT above which the server's
	// spans are reported as not covering a request's time.
	unattributedFlag = 0.10
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
}

// result is the benchmark's JSON verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scan-heavy, release, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated table and request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 measures per-layer metrics, 0 end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/runs", "directory for each run's ledger, audit trail and access log")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded with the result")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fail(fmt.Errorf("--trace must be 0 or 1 and --seconds positive"))
	}
	dataset.SetScanWorkers(runtime.NumCPU())
	ctx := context.Background()

	if cfg.workload != "all" {
		m := mixNamed(cfg.workload)
		if m == nil {
			fail(fmt.Errorf("unknown workload %q", cfg.workload))
		}
		res, err := run(ctx, os.Stdout, cfg, m)
		if err != nil {
			fail(err)
		}
		emit(res)
		return
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, m := range mixes {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			res, err := run(ctx, os.Stdout, cfg, m)
			if err != nil {
				fail(err)
			}
			writeJSON(os.Stdout, res)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, v := range res.Metrics {
				total.Metrics[m.name+"."+name] = v
			}
		}
	}
	emit(total)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// emit prints the result as the last line and exits non-zero when a
// correctness check failed.
func emit(res *result) {
	writeJSON(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// run performs one run of workload m: generate, set up several times,
// warm up, measure, verify. It reports on out as it goes.
func run(ctx context.Context, out io.Writer, cfg config, m *mix) (*result, error) {
	rows := generate(m.rows, cfg.seed)
	tr := computeTruth(m, rows)
	baseline := liveHeap()

	runDir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", m.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	var setups []float64
	var phases []setupPhases
	var st *stack
	for i := range m.setups {
		if st != nil {
			st.close()
		}
		tbl := buildTable(rows)
		start := time.Now()
		var err error
		st, err = openStack(ctx, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), tbl, analysts)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		phases = append(phases, st.phases)
	}
	defer st.close()
	heapMiB := (liveHeap() - baseline) / (1 << 20)
	runtime.KeepAlive(rows) // part of the baseline, so it must stay live

	writeJSON(out, map[string]any{"env": map[string]any{
		"workload":     m.name,
		"trace":        cfg.trace,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"rows":         m.rows,
		"analysts":     analysts,
		"setups":       m.setups,
		"cpus":         runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"scan_workers": dataset.ScanWorkers(),
		"go_version":   runtime.Version(),
		"commit":       cfg.commit,
		"fsync":        "on",
	}})

	streams := make([]*stream, analysts)
	for i := range streams {
		streams[i] = newStream(m, cfg.seed, i)
	}
	all, _ := st.window(ctx, m, tr, streams, warmup, false)
	d := time.Duration(cfg.seconds * float64(time.Second))

	var values map[string]float64
	var measured *tally
	var notes []string
	if cfg.trace {
		before, err := fetchMetrics(ctx, st.scraper, st.base)
		if err != nil {
			return nil, err
		}
		measured = &tally{}
		var done [2]int // completed queries, untraced and traced
		var took [2]time.Duration
		for r := range traceRounds {
			for k := range 2 {
				i := (r + k) % 2 // 1 is traced; the side that goes first alternates
				t, el := st.window(ctx, m, tr, streams, d/(2*traceRounds), i == 1)
				done[i] += t.attempted - t.failed
				took[i] += el
				measured.merge(t)
			}
		}
		after, err := fetchMetrics(ctx, st.scraper, st.base)
		if err != nil {
			return nil, err
		}
		values, notes = layerValues(layerInputs{
			tally:     measured,
			before:    before,
			after:     after,
			plainQPS:  float64(done[0]) / took[0].Seconds(),
			tracedQPS: float64(done[1]) / took[1].Seconds(),
			phases:    phases,
		})
	} else {
		cpu0 := cpuTime()
		start := time.Now()
		var elapsed time.Duration
		measured, elapsed = st.window(ctx, m, tr, streams, d, false)
		cpu := cpuTime() - cpu0
		var err error
		if values, notes, err = endToEndValues(measured, start, elapsed, cpu, setups, heapMiB); err != nil {
			return nil, err
		}
	}
	all.merge(measured)
	if err := st.verifySpend(all.charged); err != nil {
		all.problem("%v", err)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: len(all.problems) == 0 && all.failed == 0, Attempted: measured.attempted, Failed: measured.failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", def.name)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
		fmt.Fprintf(out, "# %-30s %14.6g %s\n", def.name, v, def.unit)
	}
	for _, n := range notes {
		fmt.Fprintf(out, "# note: %s\n", n)
	}
	for _, p := range all.problems {
		fmt.Fprintf(out, "# FAILED CHECK: %s\n", p)
	}
	return res, nil
}

// liveHeap is the live heap in bytes after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metricDef names one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_query", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"mean_abs_err", "answer-units", "lower"},
}

// queryKinds are the kinds per-kind core metrics are split by.
var queryKinds = []string{
	server.KindCount, server.KindHistogram, server.KindWorkload,
	server.KindQuantile, server.KindSample,
}

// scanKinds are the kinds whose queries open a "scan" phase. Quantile
// and sample releases trace as a single "noise" phase, so they have no
// per-kind scan metric.
var scanKinds = []string{server.KindCount, server.KindHistogram, server.KindWorkload}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.rtt_ms", "ms", "lower"},
		{"server.transport_ms", "ms", "lower"},
		{"server.unattributed_ms", "ms", "lower"},
		{"server.unattributed_share", "ratio", "lower"},
		{"server.auth_ms", "ms", "lower"},
		{"server.compile_ms", "ms", "lower"},
		{"server.artifact_ms", "ms", "lower"},
		{"server.artifact_hit_ratio", "ratio", "higher"},
		{"server.encode_ms", "ms", "lower"},
		{"server.response_kb", "KiB", "lower"},
		{"ledger.charge_ms", "ms", "lower"},
		{"ledger.commit_wait_ms", "ms", "lower"},
		{"ledger.fsyncs_per_query", "count", "lower"},
		{"ledger.records_per_fsync", "count", "higher"},
		{"ledger.fsync_ms", "ms", "lower"},
		{"ledger.open_ms", "ms", "lower"},
		{"ledger.create_analyst_ms", "ms", "lower"},
		{"audit.fsyncs_per_query", "count", "lower"},
		{"audit.fsync_ms", "ms", "lower"},
		{"audit.open_ms", "ms", "lower"},
		{"core.scan_ms", "ms", "lower"},
		{"core.noise_ms", "ms", "lower"},
	}
	for _, k := range queryKinds {
		if slices.Contains(scanKinds, k) {
			defs = append(defs, metricDef{"core.scan_ms." + k, "ms", "lower"})
		}
		defs = append(defs, metricDef{"core.noise_ms." + k, "ms", "lower"})
	}
	return append(defs,
		metricDef{"dataset.chunks_per_query", "count", "lower"},
		metricDef{"dataset.degraded_per_query", "count", "lower"},
		metricDef{"dataset.register_s", "s", "lower"},
		metricDef{"trace.samples", "count", "higher"},
		metricDef{"trace.missed_share", "ratio", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"client.error_share", "ratio", "lower"},
	)
}()

// endToEndValues computes the end-to-end metrics of a measured run that
// started at start and ended elapsed later, when its last answer came.
func endToEndValues(t *tally, start time.Time, elapsed, cpu time.Duration, setups []float64, heapMiB float64) (map[string]float64, []string, error) {
	p99, n, err := windowPercentile(t.samples, start, elapsed, e2eWindows, 99)
	if err != nil {
		return nil, nil, fmt.Errorf("%w; measure longer", err)
	}
	p50, _, err := windowPercentile(t.samples, start, elapsed, n, 50)
	if err != nil {
		return nil, nil, err
	}
	completed := t.attempted - t.failed
	notes := []string{
		fmt.Sprintf("%d requests; throughput is the median over %d windows of %.1f s, latency percentiles the median over %d windows of %.1f s",
			len(t.samples), e2eWindows, elapsed.Seconds()/e2eWindows, n, elapsed.Seconds()/float64(n)),
		"cpu_ms_per_query is the whole process: server and load generator together",
	}
	return map[string]float64{
		"throughput_qps":   median(windowRates(t.samples, start, elapsed, e2eWindows)),
		"latency_p50_ms":   capTimeout(p50),
		"latency_p99_ms":   capTimeout(p99),
		"cpu_ms_per_query": ms(cpu) / float64(max(completed, 1)),
		"setup_s":          median(setups),
		"heap_mb":          heapMiB,
		"mean_abs_err":     t.acc.mean(),
	}, notes, nil
}

// capTimeout reports a percentile that fell on a failed request as the
// request timeout: it missed every latency limit up to that.
func capTimeout(v float64) float64 {
	return min(v, ms(requestTimeout))
}

type layerInputs struct {
	tally               *tally
	before, after       scrape
	plainQPS, tracedQPS float64
	phases              []setupPhases
}

// layerValues computes the per-layer metrics of a traced run, plus
// notes for the report.
func layerValues(in layerInputs) (map[string]float64, []string) {
	t := in.tally
	mean := func(kind string, f func(breakdown) float64) float64 {
		sum, n := 0.0, 0
		for _, b := range t.traces {
			if kind == "" || b.kind == kind {
				sum += f(b)
				n++
			}
		}
		return ratio(sum, float64(n))
	}
	phase := func(f func(setupPhases) time.Duration) float64 {
		xs := make([]float64, len(in.phases))
		for i, p := range in.phases {
			xs[i] = ms(f(p))
		}
		return median(xs)
	}
	queries := float64(t.attempted - t.failed)
	d := func(name string) float64 { return in.after[name] - in.before[name] }
	hits, misses := d("osdp_cache_hits_total"), d("osdp_cache_misses_total")
	ledgerFsyncs := d("osdp_ledger_wal_fsync_seconds_count")
	auditFsyncs := d("osdp_audit_fsync_seconds_count")
	rtt := mean("", func(b breakdown) float64 { return b.rtt })
	unattributed := mean("", func(b breakdown) float64 { return b.unattributed })
	v := map[string]float64{
		"server.rtt_ms":              rtt,
		"server.transport_ms":        mean("", func(b breakdown) float64 { return b.transport }),
		"server.unattributed_ms":     unattributed,
		"server.unattributed_share":  ratio(unattributed, rtt),
		"server.auth_ms":             mean("", func(b breakdown) float64 { return b.auth }),
		"server.compile_ms":          mean("", func(b breakdown) float64 { return b.compile }),
		"server.artifact_ms":         mean("", func(b breakdown) float64 { return b.artifact }),
		"server.artifact_hit_ratio":  ratio(hits, hits+misses),
		"server.encode_ms":           mean("", func(b breakdown) float64 { return b.encode }),
		"server.response_kb":         mean("", func(b breakdown) float64 { return b.responseKB }),
		"ledger.charge_ms":           mean("", func(b breakdown) float64 { return b.charge }),
		"ledger.commit_wait_ms":      mean("", func(b breakdown) float64 { return b.commitWait }),
		"ledger.fsyncs_per_query":    ratio(ledgerFsyncs, queries),
		"ledger.records_per_fsync":   ratio(d("osdp_ledger_fsync_batch_records_sum"), d("osdp_ledger_fsync_batch_records_count")),
		"ledger.fsync_ms":            1000 * ratio(d("osdp_ledger_wal_fsync_seconds_sum"), ledgerFsyncs),
		"audit.fsyncs_per_query":     ratio(auditFsyncs, queries),
		"audit.fsync_ms":             1000 * ratio(d("osdp_audit_fsync_seconds_sum"), auditFsyncs),
		"core.scan_ms":               mean("", func(b breakdown) float64 { return b.scan }),
		"core.noise_ms":              mean("", func(b breakdown) float64 { return b.noise }),
		"dataset.chunks_per_query":   ratio(d("osdp_scan_chunks_processed_total"), queries),
		"dataset.degraded_per_query": ratio(d("osdp_scan_degraded_total"), queries),
		"dataset.register_s":         phase(func(p setupPhases) time.Duration { return p.register }) / 1000,
		"ledger.open_ms":             phase(func(p setupPhases) time.Duration { return p.ledgerOpen }),
		"ledger.create_analyst_ms":   phase(func(p setupPhases) time.Duration { return p.createAnalyst }),
		"audit.open_ms":              phase(func(p setupPhases) time.Duration { return p.auditOpen }),
		"trace.samples":              float64(len(t.traces)),
		"trace.missed_share":         ratio(float64(t.missed), float64(t.missed+len(t.traces))),
		"trace.overhead_pct":         100 * ratio(in.plainQPS-in.tracedQPS, in.plainQPS),
		"client.error_share":         ratio(float64(t.failed), float64(t.attempted)),
	}
	for _, k := range scanKinds {
		v["core.scan_ms."+k] = mean(k, func(b breakdown) float64 { return b.scan })
	}
	for _, k := range queryKinds {
		v["core.noise_ms."+k] = mean(k, func(b breakdown) float64 { return b.noise })
	}
	notes := []string{
		fmt.Sprintf("%d traced queries, %d traces missed; per-layer times are means per traced query", len(t.traces), t.missed),
		fmt.Sprintf("throughput untraced %.1f/s, traced %.1f/s", in.plainQPS, in.tracedQPS),
	}
	if share := v["server.unattributed_share"]; share > unattributedFlag {
		notes = append(notes, fmt.Sprintf("FLAG: unattributed server time is %.1f%% of RTT (above %.0f%%): the spans do not cover the request", 100*share, 100*unattributedFlag))
	}
	return v, notes
}
