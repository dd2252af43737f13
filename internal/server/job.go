package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
	"nearclique/internal/flight"
	"nearclique/internal/graph"
	"nearclique/internal/obs"
	"nearclique/internal/report"
)

// kind is what one request kind — a solve or a count — contributes to
// the job pipeline (DESIGN.md §9). Everything else — cache lookup and
// put, routing, tracing, admission, the panic barrier, the status
// mapping, cost-model training and miss accounting — is the pipeline's,
// written once for every kind.
type kind interface {
	// key is the canonical cache key on a graph with the given content
	// digest: every resolved parameter that can influence the response
	// body, in a fixed order with canonical float formatting.
	key(digest string) string
	// route resolves engine=auto against the cost model; a kind with no
	// engine choice returns itself.
	route(m *costmodel.Model, g *graph.Graph) kind
	// options are the kind's solver options; the pipeline appends the
	// shared recorder and parallelism tail.
	options() []nearclique.Option
	// features are the cost-model features the run is priced and
	// trained by.
	features(g *graph.Graph) costmodel.Features
	// exec makes the kind's Solve or Count call on g and assembles its
	// record.
	exec(ctx context.Context, solver *nearclique.Solver, g *graph.Graph) (ran, error)
	// failBody renders a run that failed outside the solver — a panic,
	// or a batch item that never ran — as the kind's record line. g is
	// nil when no graph was acquired, which only batch items (always
	// solves) can hit.
	failBody(g *graph.Graph, wall time.Duration, err error) []byte
}

// ran is one executed Solve or Count call as its kind reports it: the
// record to marshal, pointers to the record's flight and trace sections
// (the pipeline fills them in), the span name and the call's bounds on
// the span clock, and the raw cost facts post-run bookkeeping needs.
type ran struct {
	rec                          any
	flight                       **report.FlightSample
	trace                        **report.Trace
	span                         string
	start, end                   time.Time
	rounds, frames, payloadBytes int64
}

// job is one resolved request moving through the pipeline: its kind's
// canonical params, the run knobs every kind shares, and the per-run
// observation state the pipeline attaches.
type job struct {
	kind
	timeout time.Duration
	// flight is the requested trailing-event window (0 = no tracing).
	// Traced jobs bypass the result cache — their bodies embed a per-run
	// trace, so serving a frozen replay would lie — so neither flight nor
	// rec nor trace ever enters a cache key.
	flight int
	rec    *flight.Recorder
	// trace is the span timeline, attached alongside rec under the same
	// opt-in (nil otherwise — every recording call no-ops).
	trace *obs.Trace
}

// maxFlightEvents caps the trailing-event window a request may ask for:
// enough to see every phase of a large solve, small enough that a trace
// can never balloon a response body past the cache-entry scale.
const maxFlightEvents = 512

// newJob wraps a kind's resolved params with the run knobs every kind
// shares: timeout_ms caps the run including queue wait (0 falls back to
// the server default) and flight is capped at maxFlightEvents.
func newJob(k kind, timeoutMS int64, flightEvents int, cfg Config) (job, error) {
	if timeoutMS < 0 {
		return job{}, fmt.Errorf("server: negative timeout_ms %d", timeoutMS)
	}
	if flightEvents < 0 {
		return job{}, fmt.Errorf("server: negative flight %d", flightEvents)
	}
	j := job{kind: k, timeout: cfg.DefaultTimeout, flight: min(flightEvents, maxFlightEvents)}
	if timeoutMS > 0 {
		j.timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return j, nil
}

// solver builds the job's Solver: the kind's options plus the recorder
// when traced. When several workers run concurrently, per-run
// parallelism is capped so the workers split the machine instead of
// oversubscribing it — worker counts never change outputs (the
// determinism suites pin this), only speed.
func (j job) solver(concurrency int) (*nearclique.Solver, error) {
	opts := j.options()
	if j.rec != nil {
		opts = append(opts, nearclique.WithFlightRecorder(j.rec))
	}
	if concurrency > 1 {
		opts = append(opts, nearclique.WithParallelism(max(1, runtime.GOMAXPROCS(0)/concurrency)))
	}
	return nearclique.New(opts...)
}

// outcome is one executed job, ready to write: the marshaled record, the
// HTTP status, whether the body may populate the cache (only complete,
// error-free runs are cacheable), plus the raw cost facts the post-run
// bookkeeping needs — cost-model training and the /statz flight
// aggregate — without re-parsing the body.
type outcome struct {
	body      []byte
	status    int
	cacheable bool

	wallNS       int64
	rounds       int64
	frames       int64
	payloadBytes int64
	flight       *report.FlightSample
}

// request is a decoded /v1/solve or /v1/count body.
type request interface {
	graphName() string
	resolve(cfg Config) (job, error)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, s.metrics.solve, new(SolveRequest))
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, s.metrics.count, new(CountRequest))
}

// handleJob is the one handler body of /v1/solve and /v1/count: decode,
// resolve, acquire the graph, opt into tracing, then the job pipeline
// under priced admission. latency is the endpoint's request histogram.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, latency *obs.Histogram, req request) {
	defer observeSince(latency, time.Now())
	if err := decodeJSON(w, r, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.graphName() == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: \"graph\" (a registered graph name) is required"))
		return
	}
	j, err := req.resolve(s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ent, err := s.reg.acquire(req.graphName())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer ent.release()
	if j.flight > 0 {
		// Trace epoch = handling start. The id goes out as a header on
		// every traced response — including error paths below — and the
		// span timeline rides in the body, which never touches the cache.
		j.trace = s.startTrace(s.nextTraceID())
		w.Header().Set("X-Nearclique-Trace-Id", j.trace.ID())
	}
	out, cache, err := s.pipeline(r.Context(), ent, j, time.Time{})
	switch {
	case err == nil:
		writeRun(w, out.status, out.body, cache)
	case out.status == http.StatusBadRequest:
		writeError(w, out.status, err)
	default:
		s.writeAdmissionError(w, err)
	}
}

// startTrace opens a span timeline for a request that opted into tracing.
func (s *Server) startTrace(id string) *obs.Trace {
	s.metrics.traces.Inc()
	return obs.NewTrace(id)
}

// pipeline runs one resolved job against an acquired graph — the shared
// path under /v1/solve, /v1/count and every /v1/batch item, so the three
// can never disagree in /statz or /metricsz. It returns the outcome and
// its X-Nearclique-Cache label ("hit" or "miss"); a non-nil error means
// the job never ran: invalid solver options (status 400, body the kind's
// error record) or an admission shed.
//
// A standalone request (batchAdmitted zero) goes through priced
// admission. A batch item already holds its batch's worker and runs
// inline, its deadline anchored at the batch's admission, so queue wait
// and earlier items spend the same budget they would standalone and a
// full batch of slow items holds the worker for at most the longest
// single item budget, not their sum.
func (s *Server) pipeline(ctx context.Context, ent *entry, j job, batchAdmitted time.Time) (outcome, string, error) {
	// The key is built from the requested canonical params — for
	// engine=auto before routing, so it stays stable while the model
	// drifts (the first executed response freezes whichever engine ran,
	// as wall_ns is frozen at the first miss). Only validated, completed
	// runs populate the cache, so invalid parameters can never produce a
	// hit, and a hit skips solver construction entirely.
	key := j.key(ent.digest)
	lookupStart := time.Now()
	if j.flight == 0 {
		if body, ok := s.cache.get(key); ok {
			ent.hits.Add(1)
			return outcome{body: body, status: http.StatusOK}, "hit", nil
		}
	}
	j.trace.Span("cache-lookup", lookupStart, time.Now())
	j.kind = j.route(s.cost, ent.g)
	if j.flight > 0 {
		j.rec = flight.New(s.cfg.FlightCapacity)
	}
	solver, err := j.solver(s.cfg.Concurrency)
	if err != nil {
		return outcome{body: j.failBody(ent.g, time.Since(lookupStart), err), status: http.StatusBadRequest}, "", err
	}

	// The deadline clock starts at admission — before the queue — so
	// backpressure counts against the request's budget and a queued
	// request whose client gave up costs at most one ctx.Err check when
	// it reaches a worker.
	if j.timeout > 0 {
		anchor := batchAdmitted
		if anchor.IsZero() {
			anchor = time.Now()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, anchor.Add(j.timeout))
		defer cancel()
	}
	feat := j.features(ent.g)
	run := func() outcome { return s.execute(ctx, solver, j, ent) }
	var out outcome
	if batchAdmitted.IsZero() {
		if out, err = s.admitRun(j.trace, feat, run); err != nil {
			// Shed before any work: not a cache miss — /statz keeps
			// misses == executed jobs, so hit ratios stay meaningful
			// under overload.
			return out, "", err
		}
	} else {
		out = run()
	}

	// Honest cost-model training: clean completed runs only — cache hits
	// returned above and failed or aborted runs are excluded, so replays
	// and pathologies can never drag predicted costs.
	if out.cacheable {
		s.cost.Observe(feat, out.rounds, out.payloadBytes, out.wallNS)
	}
	if out.flight != nil {
		s.flights.merge(out.flight, out.rounds, out.frames, out.payloadBytes)
	}
	if s.cache.enabled() {
		s.cache.recordMiss()
		ent.misses.Add(1)
	}
	if j.flight == 0 && out.cacheable {
		s.cache.put(key, out.body)
	}
	return out, "miss", nil
}

// admitRun pushes one priced job through admission control and waits for
// it. Jobs the cost model reliably prices under CheapSolveNS take the
// fast path: they run inline on this goroutine (behind a bounded
// semaphore) instead of waiting behind expensive queued work — priced
// admission's payoff. Everything else queues on the worker pool.
func (s *Server) admitRun(tr *obs.Trace, feat costmodel.Features, run func() outcome) (outcome, error) {
	submitted := time.Now()
	if s.cheapPredicted(feat) && s.admit.tryBypass() {
		// The fast path's wait is ~0 by construction; observing it keeps
		// the wait histogram an honest distribution over all accepted
		// jobs, not just the queued subset.
		s.observeWait(tr, submitted)
		start := time.Now()
		out := run()
		s.admit.endBypass(time.Since(start))
		return out, nil
	}
	done := make(chan outcome, 1)
	if err := s.admit.submit(func() {
		s.observeWait(tr, submitted)
		done <- run()
	}); err != nil {
		return outcome{}, err
	}
	return <-done, nil
}

// observeWait records the admission wait — submit to execution start — in
// the wait histogram and, for traced requests, as the admission-wait
// span. Runs on the worker goroutine at job start (or inline on the fast
// path, where the wait is the bypass check itself).
func (s *Server) observeWait(tr *obs.Trace, submitted time.Time) {
	now := time.Now()
	s.metrics.wait.Observe(now.Sub(submitted))
	tr.Span("admission-wait", submitted, now)
}

// cheapPredicted reports whether the cost model reliably prices this
// request under the fast-path threshold. Unreliable predictions (too few
// honest samples) never qualify, so a fresh server queues everything.
func (s *Server) cheapPredicted(f costmodel.Features) bool {
	if s.cfg.CheapSolveNS <= 0 {
		return false
	}
	pred := s.cost.Predict(f)
	return pred.Reliable() && pred.NS <= float64(s.cfg.CheapSolveNS)
}

// execute makes one job's Solve or Count call on the calling (worker)
// goroutine and renders its record, behind the request path's panic
// barrier. Jobs run on pool workers, outside net/http's per-request
// recovery, so without the barrier a panic reachable through one request
// (an engine bug on one loaded graph) would kill the daemon and every
// in-flight request; instead it costs its own request a 500 whose body is
// the kind's error record, carrying the wall time actually burned.
// Cancellation and deadline errors surface from the solver as wrapped
// context errors with valid partial metrics; they map to HTTP statuses
// here and the partial record still ships in the body, mirroring
// cmd/nearclique -json.
func (s *Server) execute(ctx context.Context, solver *nearclique.Solver, j job, ent *entry) (out outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			out = outcome{
				body:   j.failBody(ent.g, time.Since(start), fmt.Errorf("server: internal panic: %v", r)),
				status: http.StatusInternalServerError,
			}
		}
	}()
	if s.testHookBeforeSolve != nil {
		s.testHookBeforeSolve()
	}
	r, err := j.exec(ctx, solver, ent.g)
	ent.solves.Add(1)
	if j.rec != nil {
		*r.flight = report.FlightFromRecorder(j.rec, j.flight)
	}
	if j.trace != nil {
		// The span clock: call boundaries from this goroutine's clock,
		// per-phase sub-spans rebased from the flight recorder's
		// wall-stamped phase events, and commit covering the record
		// assembly just done. The trace rides inside the body, so it must
		// be complete before Marshal — response writing itself is the one
		// step no in-body span can cover.
		j.trace.Span(r.span, r.start, r.end)
		addPhaseSpans(j.trace, r.span, j.rec, *r.flight, j.trace.Since(r.start))
		j.trace.Span("commit", r.end, time.Now())
		*r.trace = wireTrace(j.trace)
	}
	body, merr := json.Marshal(r.rec)
	if merr != nil {
		return outcome{body: []byte(`{"error":"response encoding failed"}` + "\n"), status: http.StatusInternalServerError}
	}
	status := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nobody observes this status.
		status = 499
	default:
		// Algorithmic aborts (round limit, component cap, a shadow arena
		// budget blow): the request was well-formed but this
		// configuration cannot complete.
		status = http.StatusUnprocessableEntity
	}
	return outcome{
		body: append(body, '\n'), status: status, cacheable: err == nil,
		wallNS: r.end.Sub(r.start).Nanoseconds(), rounds: r.rounds, frames: r.frames,
		payloadBytes: r.payloadBytes, flight: *r.flight,
	}
}

// addPhaseSpans derives per-phase sub-spans ("<prefix>/<phase>") from the
// flight sample's wall-stamped phase events; prefix is the enclosing
// span's name ("solve" or "count"). A phase event is recorded at
// phase end, so phase k spans from the previous phase's end (the call
// start for the first) to its own event timestamp; event offsets are
// rebased from the recorder's epoch onto the trace's. A ring that
// dropped or truncated events yields a correspondingly partial timeline
// — observation degrades, never lies.
func addPhaseSpans(tr *obs.Trace, prefix string, rec *flight.Recorder, sample *report.FlightSample, startNS int64) {
	if tr == nil || rec == nil || sample == nil {
		return
	}
	base := tr.Since(rec.Epoch())
	prev := startNS
	for _, ev := range sample.Events {
		if ev.Kind != flight.KindPhase.String() {
			continue
		}
		end := base + ev.WallNS
		tr.Add(prefix+"/"+ev.Phase, prev, end-prev)
		prev = end
	}
}

// wireTrace converts a trace to its wire form for the response body.
func wireTrace(tr *obs.Trace) *report.Trace {
	spans := tr.Spans()
	out := &report.Trace{TraceID: tr.ID(), Spans: make([]report.TraceSpan, len(spans))}
	for i, sp := range spans {
		out.Spans[i] = report.TraceSpan{Name: sp.Name, StartNS: sp.StartNS, DurNS: sp.DurNS}
	}
	return out
}
