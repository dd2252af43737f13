package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
	"nearclique/internal/graph"
	"nearclique/internal/report"
)

// maxRequestBytes bounds request bodies; a full /v1/batch of MaxBatch
// items is a few tens of KB, so 1 MiB is generous without letting a
// hostile client buffer arbitrary payloads.
const maxRequestBytes = 1 << 20

// batchWriteStall bounds the total time a worker may spend blocked
// writing a batch stream to a slow client before the stream is
// abandoned — a cumulative budget across all lines, so MaxBatch slow
// reads cannot multiply it.
const batchWriteStall = 30 * time.Second

// SolveRequest is the /v1/solve body (and the element type of
// /v1/batch). Omitted fields mean the solver defaults — the same
// defaults the cmd/nearclique flags document: engine auto, ε 0.25,
// expected sample 6, seed 1, one boosting version. Seed is a pointer
// because 0 is a legitimate seed (every other numeric field's zero is
// invalid or means "disabled", so plain zero-detection suffices there).
// timeout_ms caps the run (including queue wait); 0 falls back to the
// server's default timeout.
type SolveRequest struct {
	Graph          string  `json:"graph"`
	Engine         string  `json:"engine,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	ExpectedSample float64 `json:"expected_sample,omitempty"`
	P              float64 `json:"p,omitempty"`
	Seed           *int64  `json:"seed,omitempty"`
	Boost          int     `json:"boost,omitempty"`
	MinSize        int     `json:"min_size,omitempty"`
	MaxRounds      int     `json:"max_rounds,omitempty"`
	// Refine enables the refinement post-pass: "near", "near:0.2",
	// "quasi:0.6", optionally with ",moves=N,pool=N" budgets. Empty means
	// no refinement. Equivalent spellings canonicalize to one cache key.
	Refine    string `json:"refine,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Flight opts into per-round flight tracing: the response's flight
	// section carries up to this many trailing recorder events (capped at
	// maxFlightEvents). Traced requests bypass the result cache — their
	// bodies embed a per-run trace, so serving a frozen replay would lie —
	// and therefore always execute. 0 (the default) disables tracing.
	Flight int `json:"flight,omitempty"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// loadGraphRequest is the POST /v1/graphs body.
type loadGraphRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// solveParams is a SolveRequest with every default applied — the
// canonical parameter record the cache key is built from, so two
// requests that spell the same run differently (explicit defaults vs.
// omitted fields) share a cache entry. It is the solve kind of the job
// pipeline (job.go).
type solveParams struct {
	engine    nearclique.Engine
	eps       float64
	sample    float64
	p         float64
	seed      int64
	boost     int
	minSize   int
	maxRounds int
	// refine is the canonical refinement spec string ("" = off) and
	// refineSpec its parsed form; the canonical string is what the cache
	// key embeds, so "quasi:0.60" and "quasi:0.6" share one entry.
	refine     string
	refineSpec nearclique.RefineSpec
}

func (req *SolveRequest) graphName() string { return req.Graph }

// resolve canonicalizes the request. Validation beyond shape (ε range,
// boost ≥ 1, …) happens in the solver build, which reuses the Solver's
// eager option validation verbatim.
func (req *SolveRequest) resolve(cfg Config) (job, error) {
	p := solveParams{eps: 0.25, sample: 6, seed: 1, boost: 1}
	name := req.Engine
	if name == "" {
		name = "auto"
	}
	eng, err := nearclique.ParseEngine(name)
	if err != nil {
		return job{}, err
	}
	p.engine = eng
	if req.Epsilon != 0 {
		p.eps = req.Epsilon
	}
	if req.P != 0 && req.ExpectedSample != 0 {
		// Contradictory sampling spellings fail loudly, like unknown
		// fields do — silently dropping one would cache the result
		// under a key the client didn't think they asked for.
		return job{}, errors.New("server: specify at most one of p and expected_sample")
	}
	if req.P != 0 {
		p.p, p.sample = req.P, 0
	} else if req.ExpectedSample != 0 {
		p.sample = req.ExpectedSample
	}
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	if req.Boost != 0 {
		p.boost = req.Boost
	}
	p.minSize = req.MinSize
	p.maxRounds = req.MaxRounds
	if req.Refine != "" {
		spec, err := nearclique.ParseRefineSpec(req.Refine)
		if err != nil {
			return job{}, err
		}
		p.refineSpec = spec
		p.refine = spec.String()
	}
	return newJob(p, req.TimeoutMS, req.Flight, cfg)
}

func (p solveParams) options() []nearclique.Option {
	opts := []nearclique.Option{
		nearclique.WithEngine(p.engine),
		nearclique.WithEpsilon(p.eps),
		nearclique.WithSeed(p.seed),
		nearclique.WithVersions(p.boost),
		nearclique.WithMinSize(p.minSize),
		nearclique.WithMaxRounds(p.maxRounds),
	}
	if p.p != 0 {
		// != 0, not > 0: a negative p must reach WithSamplingProbability's
		// validator and fail blaming p, not expected_sample.
		opts = append(opts, nearclique.WithSamplingProbability(p.p))
	} else {
		opts = append(opts, nearclique.WithExpectedSample(p.sample))
	}
	if p.refine != "" {
		opts = append(opts, nearclique.WithRefine(p.refineSpec))
	}
	return opts
}

// key is the canonical solve cache key. timeout is deliberately
// excluded: only successful (complete) runs are cached, and for a
// deterministic solver the deadline can only decide whether a run
// completes, never what it computes. See DESIGN.md §9 for the full
// canonicalization rules.
func (p solveParams) key(digest string) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return digest +
		"|eng=" + p.engine.String() +
		"|eps=" + f(p.eps) +
		"|s=" + f(p.sample) +
		"|p=" + f(p.p) +
		"|seed=" + strconv.FormatInt(p.seed, 10) +
		"|boost=" + strconv.Itoa(p.boost) +
		"|min=" + strconv.Itoa(p.minSize) +
		"|rounds=" + strconv.Itoa(p.maxRounds) +
		"|refine=" + p.refine
}

// autoCandidates are the engines engine=auto chooses among, in
// preference order: the sequential replay (the static default), the
// frontier kernels, and the sharded simulator — the serving-grade
// executors. The cost model routes to frontier once its fitted curve
// reliably beats the others for the request's features.
var autoCandidates = []string{"seq", "frontier", "sharded"}

// route resolves engine=auto: the cost model picks the cheapest
// reliably-predicted engine; with too few samples the static default
// (the sequential replay) stands and the params are returned unchanged.
func (p solveParams) route(m *costmodel.Model, g *graph.Graph) kind {
	if p.engine != nearclique.EngineAuto {
		return p
	}
	if picked := m.PickEngine(p.features(g), autoCandidates); picked != "" {
		if eng, err := nearclique.ParseEngine(picked); err == nil {
			p.engine = eng
		}
	}
	return p
}

// features prices the run on the engine it actually executes:
// EngineAuto runs the sequential replay when the model makes no pick.
func (p solveParams) features(g *graph.Graph) costmodel.Features {
	engine := p.engine.String()
	if p.engine == nearclique.EngineAuto {
		engine = "seq"
	}
	sample := p.sample
	if p.p > 0 {
		sample = p.p * float64(g.N())
	}
	return costmodel.Features{
		Engine:   engine,
		N:        g.N(),
		M:        g.M(),
		Epsilon:  p.eps,
		Sample:   sample,
		Versions: p.boost,
		Refine:   p.refine != "",
	}
}

// exec runs the solve and renders the shared report.Run schema.
func (p solveParams) exec(ctx context.Context, solver *nearclique.Solver, g *graph.Graph) (ran, error) {
	start := time.Now()
	res, err := solver.Solve(ctx, g)
	end := time.Now()
	rec := report.FromResult(p.engine.String(), g, res, end.Sub(start), err)
	return ran{
		rec: &rec, flight: &rec.Flight, trace: &rec.Trace, span: "solve", start: start, end: end,
		rounds: int64(rec.Rounds), frames: int64(rec.Frames), payloadBytes: int64(rec.PayloadBytes),
	}, err
}

// failBody renders a failed solve as a bare Run record carrying only the
// engine, the error and the wall time consumed, so batch error lines
// report service time like executed ones (TestBatchWallNSUnified).
func (p solveParams) failBody(_ *graph.Graph, wall time.Duration, err error) []byte {
	rec := report.Run{Engine: p.engine.String(), Error: err.Error()}
	rec.WallNS = wall.Nanoseconds()
	body, _ := json.Marshal(rec)
	return append(body, '\n')
}

// --- Handlers -----------------------------------------------------------

// handleBatch streams one report.Run per request item as NDJSON, in
// request order. The whole batch is admitted as a single job — one queue
// slot, one worker — so a burst of batches backpressures exactly like a
// burst of solves. Items run the same job pipeline as /v1/solve, result
// cache included; per-item failures (unknown graph, abort, timeout)
// become in-band Run records with the error field set, keeping the
// stream aligned.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer observeSince(s.metrics.batch, time.Now())
	var breq BatchRequest
	if err := decodeJSON(w, r, &breq); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: empty batch"))
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: batch of %d items exceeds the %d-item cap", len(breq.Requests), s.cfg.MaxBatch))
		return
	}

	// Resolve and validate every item up front: a malformed item fails
	// the whole batch with 400 before any work is admitted.
	items := make([]job, len(breq.Requests))
	for i, req := range breq.Requests {
		if req.Graph == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch item %d: \"graph\" is required", i))
			return
		}
		j, err := req.resolve(s.cfg)
		if err == nil {
			_, err = j.solver(s.cfg.Concurrency)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch item %d: %w", i, err))
			return
		}
		items[i] = j
	}

	// One trace id for the batch when any item opted into tracing; item
	// traces derive theirs from it ("<batch-id>.<index>"), so the header
	// joins the stream to every per-line trace section. It is set before
	// admission, like /v1/solve's, so a traced batch shed with 429 or 503
	// carries its id too.
	var batchTraceID string
	for _, j := range items {
		if j.flight > 0 {
			batchTraceID = s.nextTraceID()
			w.Header().Set("X-Nearclique-Trace-Id", batchTraceID)
			break
		}
	}

	// Per-item deadlines are anchored here, at admission — the same
	// clock /v1/solve uses (see pipeline).
	admitted := time.Now()
	done := make(chan struct{})
	if err := s.admit.submit(func() {
		defer close(done)
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Unlike /v1/solve (whose body is written by the handler
		// goroutine after the job finishes), this stream is written by
		// the worker itself — so writes carry deadlines, or a client
		// reading at a trickle would pin the worker and defeat
		// admission control. The stall budget is cumulative across the
		// whole stream: healthy clients consume microseconds of it per
		// line, while a slow reader can hold the worker for at most
		// batchWriteStall total, not per item.
		rc := http.NewResponseController(w)
		// The deadline is absolute on the underlying connection and
		// net/http only re-arms it between requests when the server
		// has a WriteTimeout (ours has none): clear it on every exit
		// path or it would poison later keep-alive requests.
		defer rc.SetWriteDeadline(time.Time{})
		budget := batchWriteStall
		for i, j := range items {
			if r.Context().Err() != nil {
				return // client gone; stop burning the worker
			}
			var traceID string
			if j.flight > 0 {
				traceID = fmt.Sprintf("%s.%d", batchTraceID, i)
			}
			line := s.batchItem(r.Context(), admitted, breq.Requests[i].Graph, j, traceID)
			wstart := time.Now()
			if err := rc.SetWriteDeadline(wstart.Add(budget)); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return
			}
			// ErrNotSupported (a wrapping middleware's writer, or a
			// test recorder) is an accepted degradation: the stream
			// still works, just without stall protection.
			if _, err := w.Write(line); err != nil {
				return // stalled or broken client; free the worker
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return
			}
			if budget -= time.Since(wstart); budget <= 0 {
				return // stall budget exhausted; abandon the stream
			}
		}
	}); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	<-done
}

// batchItem is the per-item half of handleBatch, on the batch's worker:
// acquire the item's graph, then run the job pipeline under the batch's
// admission instant. Every line it renders — executed, error, panic —
// carries wall_ns for the service time the item consumed (cached lines
// are the deliberate exception: their wall_ns stays frozen at the first
// miss, the cache's byte-identity contract). traceID, when non-empty,
// attaches a per-item span trace.
func (s *Server) batchItem(ctx context.Context, admitted time.Time, graphName string, j job, traceID string) []byte {
	start := time.Now()
	if traceID != "" {
		j.trace = s.startTrace(traceID)
	}
	ent, err := s.reg.acquire(graphName)
	if err != nil {
		return j.failBody(nil, time.Since(start), err)
	}
	defer ent.release()
	out, _, _ := s.pipeline(ctx, ent, j, admitted)
	return out.body
}

func (s *Server) handleGraphsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Graphs []report.GraphStats `json:"graphs"`
	}{s.reg.list()})
}

func (s *Server) handleGraphsLoad(w http.ResponseWriter, r *http.Request) {
	var req loadGraphRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: \"name\" and \"path\" are required"))
		return
	}
	st, err := s.reg.load(req.Name, req.Path)
	switch {
	case errors.Is(err, ErrGraphExists):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		// Unreadable path, oversized input, corrupt snapshot, …: the
		// request itself was malformed for this filesystem.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleGraphsUnload(w http.ResponseWriter, r *http.Request) {
	err := s.reg.unload(r.PathValue("name"))
	switch {
	case errors.Is(err, ErrGraphNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// --- Plumbing -----------------------------------------------------------

// decodeJSON strictly decodes a bounded request body: unknown fields are
// rejected so a typo'd parameter fails loudly instead of silently running
// with defaults (which the cache would then happily serve forever).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst interface{}) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	// Exactly one JSON value: trailing data means a concatenated or
	// garbled body, and half-processing it would cache a run the client
	// never meant to ask for.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("server: bad request body: trailing data after the JSON value")
	}
	return nil
}

func writeRun(w http.ResponseWriter, status int, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Nearclique-Cache", cache)
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeAdmissionError maps a shed to its status. A 429's Retry-After is
// computed, not hardcoded: the estimated time for the current queue to
// clear at the observed mean executed-job wall time (integer seconds per
// RFC 9110, floored at 1) — a deep queue honestly advises a longer
// back-off than an empty one.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.admit.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
