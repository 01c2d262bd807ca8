package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"osdp/internal/dataset"
	"osdp/internal/server"
	"osdp/internal/telemetry"
)

func draw(m *mix, seed uint64, analyst, n int) []request {
	s := newStream(m, seed, analyst)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, m := range mixes {
		a, b := draw(m, 7, 0, 300), draw(m, 7, 0, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two request streams", m.name)
		}
		if reflect.DeepEqual(a, draw(m, 8, 0, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", m.name)
		}
		if reflect.DeepEqual(a, draw(m, 7, 1, 300)) {
			t.Errorf("%s: two analysts got the same request stream", m.name)
		}
	}
	if !reflect.DeepEqual(generate(500, 3), generate(500, 3)) || reflect.DeepEqual(generate(500, 3), generate(500, 4)) {
		t.Error("the generated table does not follow the seed")
	}
}

func TestStreamMixes(t *testing.T) {
	want := map[string]map[string]float64{
		"scan-heavy": {"histogram": 0.60, "count": 0.25, "workload": 0.15},
		"release":    {"quantile": 0.30, "sample": 0.70},
	}
	const n = 20000
	for _, m := range mixes {
		got := map[string]float64{}
		ests := map[string]bool{}
		for _, r := range draw(m, 1, 0, n) {
			got[r.kind] += 1.0 / n
			if r.kind == server.KindWorkload {
				ests[r.est] = true
			}
		}
		for kind, share := range want[m.name] {
			if math.Abs(got[kind]-share) > 0.02 {
				t.Errorf("%s: %s is %.3f of the stream, want %.2f", m.name, kind, got[kind], share)
			}
		}
		if m.name == "scan-heavy" && len(ests) != len(estimators) {
			t.Errorf("scan-heavy cycles through %d estimators, want %d", len(ests), len(estimators))
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, err := percentile(sorted(999), 99); err == nil {
		t.Error("p99 of 999 samples was reported; it has only 9 beyond it")
	}
	v, err := percentile(sorted(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, err)
	}
	if v, err := percentile(sorted(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(sorted(19), 50); err == nil {
		t.Error("p50 of 19 samples was reported; it has only 9 beyond it")
	}
	if _, err := samplePercentile(nil, 50); err == nil {
		t.Error("a percentile of no samples was reported")
	}
}

func TestWindowRates(t *testing.T) {
	start := time.Unix(0, 0)
	var samples []sample
	// One answer per 10 ms over 3 s, except that the middle second
	// answers only every 20 ms; two requests of the first second fail.
	add := func(from, to, step time.Duration) {
		for at := from; at < to; at += step {
			samples = append(samples, sample{end: start.Add(at), rtt: 1})
		}
	}
	add(5*time.Millisecond, time.Second, 10*time.Millisecond)
	add(time.Second+10*time.Millisecond, 2*time.Second, 20*time.Millisecond)
	add(2*time.Second+5*time.Millisecond, 3*time.Second, 10*time.Millisecond)
	samples[10].rtt, samples[11].rtt = math.Inf(1), math.Inf(1)
	got := windowRates(samples, start, 3*time.Second, 3)
	if want := []float64{98, 50, 100}; !reflect.DeepEqual(got, want) {
		t.Errorf("window rates = %v, want %v", got, want)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// stalledRun is 30 s of a closed loop answering one request per ms,
// except that every period the service stalls for stall: the request
// in flight then takes stall longer, and no other answer arrives.
func stalledRun(period, stall time.Duration) (*tally, time.Duration) {
	const run = 30 * time.Second
	t := &tally{}
	at := time.Duration(0)
	next := period
	for at < run {
		rtt := time.Millisecond
		if stall > 0 && at+rtt >= next {
			rtt += stall
			next += period
		}
		at += rtt
		t.attempted++
		t.samples = append(t.samples, sample{end: time.Unix(0, int64(at)), rtt: ms(rtt)})
	}
	return t, at
}

// TestPeriodicStallShows checks that periodic work too short to touch
// most requests still moves the end-to-end figures: a 300 ms stall
// every 1.6 s costs 300/1600 of the answers, and throughput must show
// that; 2% of the requests slowed in a stretch every second must move
// p99. A burst that covers less than half the windows must not.
func TestPeriodicStallShows(t *testing.T) {
	values := func(run *tally, elapsed time.Duration) map[string]float64 {
		t.Helper()
		v, _, err := endToEndValues(run, time.Unix(0, 0), elapsed, time.Second, []float64{1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	smooth := values(stalledRun(time.Second, 0))
	stalled := values(stalledRun(1600*time.Millisecond, 300*time.Millisecond))
	if r := stalled["throughput_qps"] / smooth["throughput_qps"]; math.Abs(r-1300.0/1600) > 0.02 {
		t.Errorf("a 300 ms stall every 1.6 s left throughput at %.3f of the smooth run's, want about %.3f", r, 1300.0/1600)
	}

	periodic, elapsed := stalledRun(time.Second, 0)
	for i := range periodic.samples {
		if i%1000 < 20 { // 20 requests in a row of every 1000, one per second
			periodic.samples[i].rtt = 50
		}
	}
	if p99 := values(periodic, elapsed)["latency_p99_ms"]; p99 != 50 {
		t.Errorf("p99 with 2%% of requests at 50 ms, every second = %v, want 50", p99)
	}

	burst, elapsed := stalledRun(time.Second, 0)
	for i := 1000; i < 4000; i++ { // 3 s at 50 ms, inside one 6 s window
		burst.samples[i].rtt = 50
	}
	if p99 := values(burst, elapsed)["latency_p99_ms"]; p99 != 1 {
		t.Errorf("p99 with one burst of slow requests = %v, want 1", p99)
	}
}

func TestWindowPercentileFallsBack(t *testing.T) {
	start := time.Unix(0, 0)
	run := func(n int) []sample {
		out := make([]sample, n)
		for i := range out {
			out[i] = sample{end: start.Add(time.Duration(i) * time.Millisecond), rtt: float64(i % 100)}
		}
		return out
	}
	// 2500 samples over 2.5 s support a p99 in two windows of 1250
	// (p99s 98 and 99), not in five of 500.
	if p, n, err := windowPercentile(run(2500), start, 2500*time.Millisecond, 5, 99); err != nil || n != 2 || p != 98.5 {
		t.Errorf("p99 of 2500 samples = %v over %d windows, %v; want 98.5 over 2", p, n, err)
	}
	if _, _, err := windowPercentile(run(999), start, 999*time.Millisecond, 5, 99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
}

// tinyMix is a hand-checkable workload: one derived Group histogram,
// one 2-D Group × Age-decade histogram, one Score range domain, and
// one predicate.
var tinyMix = &mix{
	name:      "tiny",
	shapes:    [][]server.DomainSpec{{groupDim}, {groupDim, ageDecades}, {{Attr: "Score", Lo: 0, Width: 100, Bins: 4}}},
	preds:     []predicate{ageAtLeast(30)},
	quantiles: true,
	samples:   true,
}

var tinyRows = []row{
	{age: 12, group: 0, score: 50},  // sensitive
	{age: 25, group: 0, score: 150}, // g00, decade 2, bin 1
	{age: 35, group: 2, score: 250}, // g02, decade 3, bin 2
	{age: 35, group: 2, score: 350}, // g02, decade 3, bin 3
	{age: 71, group: 0, score: 120}, // g00, decade 7, bin 1
	{age: 17, group: 5, score: 390}, // sensitive
}

func TestTruthOnTinyTable(t *testing.T) {
	tr := computeTruth(tinyMix, tinyRows)
	if tr.nonSensitive != 4 {
		t.Errorf("non-sensitive rows = %v, want 4", tr.nonSensitive)
	}
	g := tr.shapes[0]
	if !reflect.DeepEqual(g.axes[0].labels, []string{"g00", "g02"}) || !reflect.DeepEqual(g.counts, []float64{2, 2}) {
		t.Errorf("Group histogram = %v %v, want [g00 g02] [2 2] (g05 holds only a sensitive row)", g.axes[0].labels, g.counts)
	}
	two := tr.shapes[1]
	want2 := make([]float64, 20)
	want2[0*10+2], want2[0*10+7], want2[1*10+3] = 1, 1, 2
	if !reflect.DeepEqual(two.counts, want2) {
		t.Errorf("Group × Age-decade counts = %v, want %v", two.counts, want2)
	}
	if got := two.axes[1].labels[3]; got != "[30,40)" {
		t.Errorf("age decade label 3 = %q, want [30,40)", got)
	}
	sc := tr.shapes[2]
	if !reflect.DeepEqual(sc.counts, []float64{0, 2, 1, 1}) || sc.rangeSum(1, 2) != 3 || sc.rangeSum(0, 3) != 4 {
		t.Errorf("Score bins = %v; ranges [1,2]=%v [0,3]=%v, want [0 2 1 1], 3, 4", sc.counts, sc.rangeSum(1, 2), sc.rangeSum(0, 3))
	}
	if tr.preds[0] != 3 {
		t.Errorf("count(Age >= 30) = %v, want 3", tr.preds[0])
	}
	// Non-sensitive scores sorted: 120 150 250 350; rank ceil(q·4).
	for q, want := range map[float64]float64{0: 120, 0.25: 120, 0.5: 150, 0.6: 250, 1: 350} {
		if got := tr.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestMeanAbsErrOnTinyTable(t *testing.T) {
	tr := computeTruth(tinyMix, tinyRows)
	var acc accuracy
	histogram := func(counts ...float64) answer {
		return answer{resp: server.QueryResponse{Counts: counts, DimLabels: [][]string{{"g00", "g02"}}}}
	}
	steps := []struct {
		req request
		ans answer
	}{
		{request{kind: server.KindCount, pred: 0}, answer{value: 1.5}},   // truth 3: error 1.5
		{request{kind: server.KindCount, pred: -1}, answer{value: 4}},    // truth 4: error 0
		{request{kind: server.KindHistogram, shape: 0}, histogram(3, 0)}, // truth 2,2: errors 1, 2
		{request{kind: server.KindWorkload, shape: 2, est: "hier", ranges: []server.RangeSpec{{Lo: 1, Hi: 2}}},
			answer{resp: server.QueryResponse{Answers: []float64{5}, Estimator: "hier"}}}, // truth 3: error 2
		{request{kind: server.KindQuantile, q: 0.5}, answer{value: 160}}, // truth 150: error 10
	}
	for _, s := range steps {
		if err := check(tr, s.req, s.ans, &acc); err != nil {
			t.Fatalf("%s: %v", s.req.kind, err)
		}
	}
	if acc.answers != 6 || acc.mean() != (1.5+0+1+2+2+10)/6 {
		t.Errorf("mean_abs_err over %d answers = %v, want %v over 6", acc.answers, acc.mean(), (1.5+0+1+2+2+10)/6)
	}
}

func TestCheckRejectsViolations(t *testing.T) {
	tr := computeTruth(tinyMix, tinyRows)
	var acc accuracy
	bad := []struct {
		name string
		req  request
		ans  answer
	}{
		{"count above the true count", request{kind: server.KindCount, pred: 0}, answer{value: 3.5}},
		{"wrong arity", request{kind: server.KindHistogram, shape: 0},
			answer{resp: server.QueryResponse{Counts: []float64{1}, DimLabels: [][]string{{"g00"}}}}},
		{"wrong labels", request{kind: server.KindHistogram, shape: 0},
			answer{resp: server.QueryResponse{Counts: []float64{1, 1}, DimLabels: [][]string{{"g00", "g01"}}}}},
		{"missing range answers", request{kind: server.KindWorkload, shape: 2, est: "flat", ranges: []server.RangeSpec{{Lo: 0, Hi: 1}}},
			answer{resp: server.QueryResponse{Estimator: "flat"}}},
	}
	for _, b := range bad {
		if err := check(tr, b.req, b.ans, &acc); err == nil {
			t.Errorf("%s passed the check", b.name)
		}
	}

	sampleOf := func(rows ...row) *dataset.Table { return buildTable(rows) }
	if err := checkSample(tr, sampleOf(tinyRows[1], tinyRows[2], tinyRows[3])); err != nil {
		t.Errorf("a true sample failed: %v", err)
	}
	if err := checkSample(tr, sampleOf(tinyRows[1], tinyRows[0])); err == nil {
		t.Error("a sample holding a sensitive row passed")
	}
	if err := checkSample(tr, sampleOf(tinyRows[1], tinyRows[1])); err == nil {
		t.Error("a sample holding a row twice as often as the table passed")
	}
	if err := checkSample(tr, sampleOf(row{age: 40, group: 1, score: 1})); err == nil {
		t.Error("a sample holding a row not in the table passed")
	}
}

func TestAttributeSplitsSpans(t *testing.T) {
	ms := time.Millisecond
	v := telemetry.TraceView{Duration: 10 * ms, Spans: []telemetry.Span{
		{Name: "auth", Offset: 0, Dur: ms},
		{Name: "compile", Offset: ms, Dur: 2 * ms},
		{Name: "artifact.domain", Offset: ms, Dur: ms},
		{Name: "ledger.charge", Offset: 3 * ms, Dur: 3 * ms},
		{Name: "ledger.commit_wait", Offset: 4 * ms, Dur: 2 * ms},
		{Name: "scan", Offset: 6 * ms, Dur: ms},
		{Name: "noise", Offset: 7 * ms, Dur: ms},
	}}
	b := attribute("count", 12*time.Millisecond, v, 2048)
	want := breakdown{kind: "count", rtt: 12, transport: 2, unattributed: 2, auth: 1, compile: 1, artifact: 1,
		charge: 1, commitWait: 2, scan: 1, noise: 1, responseKB: 2}
	if b != want {
		t.Errorf("attribute = %+v\nwant        %+v", b, want)
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
	// Every metric run emits is one of these: a traced run's values and
	// an end-to-end run's values cover exactly the declared names.
	layers, _ := layerValues(layerInputs{tally: &tally{}, phases: []setupPhases{{register: time.Second}}})
	checkCovers(t, "per-layer", layers, perLayer)
	e2e, _, err := endToEndValues(fakeRun(1000), time.Unix(0, 0), time.Second, time.Second, []float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, "end-to-end", e2e, endToEnd)
}

func fakeRun(n int) *tally {
	t := &tally{attempted: n}
	for i := range n {
		t.samples = append(t.samples, sample{end: time.Unix(0, int64(i+1)*int64(time.Millisecond)), rtt: float64(i % 7)})
	}
	return t
}

func checkCovers(t *testing.T, what string, values map[string]float64, defs []metricDef) {
	t.Helper()
	if len(values) != len(defs) {
		t.Errorf("%s run computes %d metrics, declares %d", what, len(values), len(defs))
	}
	for _, d := range defs {
		if _, ok := values[d.name]; !ok {
			t.Errorf("%s metric %s is declared but not computed", what, d.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// metrics and workloads, in step with what the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if mixNamed(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(mixes) {
		t.Errorf("BENCHMARK.json lists workloads %s; the benchmark runs %d", strings.Join(names, ","), len(mixes))
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics where the benchmark emits %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the benchmark emits %+v", i, j, d)
			}
		}
	}
}
