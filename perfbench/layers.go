package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"osdp/internal/telemetry"
)

// scrape is one GET /metrics: each series name (labels dropped) mapped
// to the sum of its values across label sets.
type scrape map[string]float64

func fetchMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:cut]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// breakdown is one traced query's time, split across the server's
// request spans. Times are in milliseconds.
type breakdown struct {
	kind         string
	rtt          float64 // client round trip
	transport    float64 // rtt − server trace duration
	unattributed float64 // trace duration − top-level spans
	auth         float64
	compile      float64 // compile span minus its artifact lookups
	artifact     float64 // artifact.domain + artifact.predicate
	charge       float64 // ledger.charge minus ledger.commit_wait
	commitWait   float64
	scan         float64
	noise        float64
	encode       float64
	responseKB   float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// attribute splits one finished trace. A span is top-level when no
// other span's interval contains it (of two identical intervals, the
// first counts); the trace time no top-level span covers is
// unattributed.
func attribute(kind string, rtt time.Duration, v telemetry.TraceView, respBytes int64) breakdown {
	b := breakdown{kind: kind, rtt: ms(rtt), transport: ms(rtt - v.Duration), responseKB: float64(respBytes) / 1024}
	top := time.Duration(0)
	for i, s := range v.Spans {
		if !containedInOther(v.Spans, i) {
			top += s.Dur
		}
		d := ms(s.Dur)
		switch {
		case s.Name == "auth":
			b.auth += d
		case s.Name == "compile":
			b.compile += d
		case strings.HasPrefix(s.Name, "artifact."):
			b.artifact += d
			b.compile -= d
		case s.Name == "ledger.charge":
			b.charge += d
		case s.Name == "ledger.commit_wait":
			b.commitWait += d
			b.charge -= d
		case s.Name == "scan":
			b.scan += d
		case s.Name == "noise":
			b.noise += d
		case s.Name == "encode":
			b.encode += d
		}
	}
	b.unattributed = ms(v.Duration - top)
	return b
}

func containedInOther(spans []telemetry.Span, i int) bool {
	s := spans[i]
	for j, o := range spans {
		if j == i || o.Offset > s.Offset || s.Offset+s.Dur > o.Offset+o.Dur {
			continue
		}
		if o.Offset != s.Offset || o.Dur != s.Dur || j < i {
			return true
		}
	}
	return false
}

// findTrace fetches the trace the server recorded under id. The server
// publishes a trace only after the response is written, so the lookup
// retries briefly; a trace still missing after that is a miss.
func findTrace(tr *telemetry.Tracer, id string) (telemetry.TraceView, bool) {
	wait := 20 * time.Microsecond
	for attempt := 0; attempt < 12; attempt++ {
		if v, ok := tr.Get(id); ok {
			return v, true
		}
		time.Sleep(wait)
		wait *= 2
	}
	return telemetry.TraceView{}, false
}
