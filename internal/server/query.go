package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"osdp/internal/agrid"
	"osdp/internal/ahp"
	"osdp/internal/audit"
	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/dawa"
	"osdp/internal/hier"
	"osdp/internal/histogram"
	"osdp/internal/telemetry"
)

// Query answers one query against an open session on behalf of analyst.
// Validation and compilation happen before ANY budget is touched, so
// malformed requests never charge; with a ledger configured the charge
// order is then
//
//  1. charge the analyst's durable (analyst, dataset) ledger account
//  2. charge the session accountant and draw noise (core.Session)
//
// and a failure at step 2 that provably released no noise (the session
// accountant rejected the charge) refunds step 1. Failures AFTER noise
// — an empty quantile sample, CSV encoding of a released sample — never
// refund: the randomness was observed, the ε is spent (Theorem 3.3).
// Once a charge succeeds the response always carries the post-charge
// budget state. Queries on the same session may run concurrently — the
// accountants and the locked noise source serialise the shared state.
//
// A workload request charges req.Eps ONCE for its entire range batch:
// the estimator releases a single synopsis and every range answer is
// post-processing of it (core.WorkloadComposite), so the ledger and
// session accountant each record exactly one charge regardless of
// batch size.
func (s *Server) Query(analyst, id string, req QueryRequest) (QueryResponse, error) {
	return s.QueryContext(context.Background(), analyst, id, req)
}

// QueryContext is Query with a request context: when ctx carries a
// trace (planted by the HTTP middleware) the query's phases are
// recorded as spans, and the request id in ctx is stamped on the audit
// event the ε decision produces. Cancellation is honoured only while
// the request waits for admission (nothing has been touched yet);
// once admitted, a charge-then-answer sequence runs to completion —
// abandoning it mid-flight could observe noise without recording the
// spend.
func (s *Server) QueryContext(ctx context.Context, analyst, id string, req QueryRequest) (QueryResponse, error) {
	if s.met == nil {
		resp, _, err := s.queryCounted(ctx, analyst, id, req)
		return resp, err
	}
	start := time.Now()
	resp, charged, err := s.queryCounted(ctx, analyst, id, req)
	s.met.observeQuery(req.Kind, time.Since(start), req.Eps, charged, err)
	return resp, err
}

// queryCounted is Query's body; charged reports whether the request's ε
// ended up retained by the accountants (true on success and on
// post-noise failures, false when validation rejected the request, the
// ledger refused the charge, or the session accountant's rejection got
// the ledger reservation refunded).
func (s *Server) queryCounted(ctx context.Context, analyst, id string, req QueryRequest) (_ QueryResponse, charged bool, _ error) {
	tr := telemetry.TraceFrom(ctx)
	tr.SetKind(canonicalKind(req.Kind))
	// Admission gates EVERYTHING: a rejected or cancelled-while-queued
	// request reaches neither a session nor a ledger, so it provably
	// charges zero ε. The session lookup runs after the wait on purpose
	// — a session whose TTL lapsed while its request queued fails
	// closed instead of executing on borrowed time.
	if s.adm != nil {
		sp := tr.StartSpan("admission")
		release, err := s.adm.acquire(ctx, analyst)
		sp.End()
		if err != nil {
			return QueryResponse{}, false, err
		}
		defer release()
	}
	se, d, err := s.lookup(analyst, id)
	if err != nil {
		return QueryResponse{}, false, err
	}
	resp := QueryResponse{Kind: req.Kind}
	if !(req.Eps >= MinQueryEps) { // also rejects NaN
		return resp, false, badf("eps must be at least %g, got %g", MinQueryEps, req.Eps)
	}

	// Compile and validate first; run executes the mechanism (charging
	// the session accountant and drawing noise) only after the ledger
	// has admitted the charge.
	sp := tr.StartSpan("compile")
	run, err := s.compileRun(req, se, d, &resp, tr)
	sp.End()
	if err != nil {
		return resp, false, err
	}

	charge := core.Guarantee{Policy: d.policy, Epsilon: req.Eps}
	if s.cfg.Ledger != nil {
		sp := tr.StartSpan("ledger.charge")
		err := s.cfg.Ledger.Charge(se.analyst, se.dataset, charge, tr)
		sp.End()
		if err != nil {
			// The ledger refused: nothing was spent, but the refusal is
			// itself an ε-bearing decision worth auditing.
			s.auditEvent(ctx, se, req.Kind, req.Eps, audit.OutcomeDenied)
			return resp, false, err
		}
	}
	if err := run(); err != nil {
		if errors.Is(err, core.ErrBudgetExceeded) {
			// The session accountant rejected the charge before the
			// mechanism ran: no noise was drawn, so the ledger
			// reservation may be returned. A failed refund keeps the
			// charge — the ledger only ever errs toward more spend.
			if s.cfg.Ledger != nil {
				_ = s.cfg.Ledger.Refund(se.analyst, se.dataset, charge)
			}
			s.auditEvent(ctx, se, req.Kind, req.Eps, audit.OutcomeRefunded)
			return resp, false, err
		}
		// Any other run failure is post-noise: the randomness was
		// observed, so the spend is real and stays on the books.
		s.auditEvent(ctx, se, req.Kind, req.Eps, audit.OutcomeRetained)
		return resp, true, err
	}

	s.auditEvent(ctx, se, req.Kind, req.Eps, audit.OutcomeReleased)
	resp.Budget = infoFor(se)
	return resp, true, nil
}

// auditEvent records one ε-bearing decision on the configured audit
// trail; one branch when auditing is disabled.
func (s *Server) auditEvent(ctx context.Context, se *session, kind string, eps float64, outcome string) {
	if s.cfg.Audit == nil {
		return
	}
	s.cfg.Audit.Append(audit.Event{
		RequestID: RequestID(ctx),
		Analyst:   se.analyst,
		Dataset:   se.dataset,
		Session:   se.id,
		Kind:      kind,
		Eps:       eps,
		Outcome:   outcome,
	})
}

// coreHooks adapts the request trace to core's TraceHook seam so scan
// and noise phases inside the mechanism record as spans. Nil (zero
// further cost) when the request is untraced.
func coreHooks(tr *telemetry.Trace) []core.TraceHook {
	if tr == nil {
		return nil
	}
	return []core.TraceHook{func(name string) func(kv ...string) {
		sp := tr.StartSpan(name)
		return func(kv ...string) {
			if len(kv) < 2 {
				sp.End()
				return
			}
			attrs := make([]telemetry.Label, 0, len(kv)/2)
			for i := 0; i+1 < len(kv); i += 2 {
				attrs = append(attrs, telemetry.L(kv[i], kv[i+1]))
			}
			sp.End(attrs...)
		}
	}}
}

// compileRun validates req and compiles it into a run closure that
// executes the mechanism against se and fills resp. Everything here
// runs BEFORE any budget is touched.
func (s *Server) compileRun(req QueryRequest, se *session, d *ds, resp *QueryResponse, tr *telemetry.Trace) (func() error, error) {
	hooks := coreHooks(tr)
	var run func() error
	var err error
	switch req.Kind {
	case KindHistogram, KindIntHistogram:
		q, err := s.compileHistogramQuery(req, d, tr)
		if err != nil {
			return nil, err
		}
		run = func() error {
			var h *histogram.Histogram
			var err error
			if req.Kind == KindHistogram {
				h, err = se.sess.Histogram(q, req.Eps, hooks...)
			} else {
				h, err = se.sess.IntHistogram(q, req.Eps, hooks...)
			}
			if err != nil {
				return err
			}
			resp.Counts = h.Counts()
			resp.DimLabels = make([][]string, len(q.Dims))
			for i, dom := range q.Dims {
				resp.DimLabels[i] = dom.Labels()
			}
			if len(q.Dims) == 1 {
				resp.Labels = resp.DimLabels[0]
			}
			return nil
		}

	case KindCount:
		pred := dataset.Predicate(dataset.True())
		if req.Where != nil {
			sp := tr.StartSpan("artifact.predicate")
			pred, err = d.art.predicate(*req.Where, d.table.Schema())
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		}
		run = func() error {
			c, err := se.sess.Count(pred, req.Eps, hooks...)
			if err != nil {
				return err
			}
			resp.Value = &c
			return nil
		}

	case KindQuantile:
		kind, ok := d.table.Schema().KindOf(req.Attr)
		if !ok {
			return nil, badf("unknown attribute %q", req.Attr)
		}
		if kind != dataset.KindInt && kind != dataset.KindFloat {
			return nil, badf("quantile needs a numeric attribute; %q is %s", req.Attr, kind)
		}
		if req.Q < 0 || req.Q > 1 {
			return nil, badf("q=%g outside [0, 1]", req.Q)
		}
		run = func() error {
			v, err := se.sess.Quantile(req.Attr, req.Q, req.Eps, hooks...)
			if err != nil {
				return err
			}
			resp.Value = &v
			return nil
		}

	case KindSample:
		run = func() error {
			t, err := se.sess.Sample(req.Eps, hooks...)
			if err != nil {
				return err
			}
			// Rendering the sample is response encoding, like the JSON
			// encode that follows it in the handler.
			sp := tr.StartSpan("encode")
			var b strings.Builder
			err = dataset.WriteCSV(&b, t)
			sp.End()
			if err != nil {
				return err
			}
			resp.SampleCSV = b.String()
			return nil
		}

	case KindWorkload:
		est, q, ranges, err := s.compileWorkloadQuery(req, d, tr)
		if err != nil {
			return nil, err
		}
		// Echo the canonical wire name, not the estimator's report name
		// ("hier", not "Hier"), so clients can compare against what they
		// sent.
		name := req.Estimator
		if name == "" {
			name = EstimatorFlat
		}
		run = func() error {
			answers, err := se.sess.Workload(q, est, ranges, req.Eps, hooks...)
			if err != nil {
				return err
			}
			resp.Answers = answers
			resp.Estimator = name
			return nil
		}

	default:
		return nil, badf("unknown query kind %q", req.Kind)
	}
	return run, nil
}

// workloadEstimator resolves a wire estimator name. Every entry is an
// ε-DP release of the non-sensitive workload histogram, hence
// (P, ε)-OSDP served answers; see core.WorkloadEstimator for the
// composition argument that prices a whole batch at one ε.
func workloadEstimator(name string) (core.WorkloadEstimator, error) {
	switch name {
	case "", EstimatorFlat:
		return core.Flat{}, nil
	case EstimatorHier:
		return hier.Estimator{}, nil
	case EstimatorDAWA:
		return dawa.New(), nil
	case EstimatorAHP:
		return ahp.New(), nil
	case EstimatorAGrid:
		return agrid.New(), nil
	default:
		return nil, badf("unknown estimator %q (known: %s, %s, %s, %s, %s)",
			name, EstimatorFlat, EstimatorHier, EstimatorDAWA, EstimatorAHP, EstimatorAGrid)
	}
}

// compileWorkloadQuery validates and compiles a workload request:
// estimator, synopsis domain(s), and the range batch. Everything here
// runs BEFORE any budget is touched. Workload dims must be explicit
// numeric shapes (lo/width/bins): range indices only mean anything
// over an ordered equi-width binning the client declared, and the
// explicit shape rides the same per-dataset domain LRU as histogram
// queries, so a repeated workload shape reuses its compiled domain and
// bin vector.
func (s *Server) compileWorkloadQuery(req QueryRequest, d *ds, tr *telemetry.Trace) (core.WorkloadEstimator, histogram.Query, []core.BinRange, error) {
	var zero histogram.Query
	est, err := workloadEstimator(req.Estimator)
	if err != nil {
		return nil, zero, nil, err
	}
	for _, spec := range req.Dims {
		if spec.Bins <= 0 || len(spec.Keys) > 0 {
			return nil, zero, nil, badf("workload dims must be numeric lo/width/bins shapes; %q is not", spec.Attr)
		}
	}
	q, err := s.compileHistogramQuery(req, d, tr)
	if err != nil {
		return nil, zero, nil, err
	}
	if len(req.Ranges) == 0 {
		return nil, zero, nil, badf("workload has no range queries")
	}
	if len(req.Ranges) > MaxWorkloadRanges {
		return nil, zero, nil, badf("workload has %d ranges, cap is %d", len(req.Ranges), MaxWorkloadRanges)
	}
	twoD := len(q.Dims) == 2
	rows := q.Dims[0].Size()
	cols := 1
	if twoD {
		cols = q.Dims[1].Size()
	}
	ranges := make([]core.BinRange, len(req.Ranges))
	for i, r := range req.Ranges {
		br := core.BinRange{Lo0: r.Lo, Hi0: r.Hi}
		switch {
		case twoD:
			if r.Lo2 == nil || r.Hi2 == nil {
				return nil, zero, nil, badf("range %d: 2-D workloads need lo2 and hi2", i)
			}
			br.Lo1, br.Hi1 = *r.Lo2, *r.Hi2
		case r.Lo2 != nil || r.Hi2 != nil:
			return nil, zero, nil, badf("range %d: lo2/hi2 are only valid on 2-D workloads", i)
		}
		if br.Lo0 < 0 || br.Hi0 < br.Lo0 || br.Hi0 >= rows ||
			br.Lo1 < 0 || br.Hi1 < br.Lo1 || br.Hi1 >= cols {
			return nil, zero, nil, badf("range %d = [%d,%d]x[%d,%d] outside the %dx%d domain",
				i, br.Lo0, br.Hi0, br.Lo1, br.Hi1, rows, cols)
		}
		ranges[i] = br
	}
	return est, q, ranges, nil
}

func (s *Server) compileHistogramQuery(req QueryRequest, d *ds, tr *telemetry.Trace) (histogram.Query, error) {
	if len(req.Dims) == 0 || len(req.Dims) > 2 {
		return histogram.Query{}, badf("histogram queries take 1 or 2 dims, got %d", len(req.Dims))
	}
	dims := make([]*histogram.Domain, len(req.Dims))
	for i, spec := range req.Dims {
		// Derived domains come from the non-sensitive partition so bin
		// labels cannot reveal sensitive-only values; resolution goes
		// through the per-dataset artifact cache so repeated shapes
		// reuse compiled domains and their bin vectors.
		sp := tr.StartSpan("artifact.domain")
		dom, err := d.art.domain(spec, d.ns)
		sp.End()
		if err != nil {
			return histogram.Query{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		dims[i] = dom
	}
	// Per-dim sizes are capped by compileDomain; cap the product too,
	// since 2-D output arity multiplies.
	if len(dims) == 2 && dims[0].Size() > MaxQueryBins/dims[1].Size() {
		return histogram.Query{}, badf("histogram output arity %d x %d exceeds the %d-bin cap", dims[0].Size(), dims[1].Size(), MaxQueryBins)
	}
	var where dataset.Predicate
	if req.Where != nil {
		sp := tr.StartSpan("artifact.predicate")
		p, err := d.art.predicate(*req.Where, d.table.Schema())
		sp.End()
		if err != nil {
			return histogram.Query{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		where = p
	}
	return histogram.NewQuery(where, dims...), nil
}
