package server

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
	"nearclique/internal/graph"
	"nearclique/internal/report"
)

// CountRequest is the /v1/count body: a Turán-shadow counting query on a
// registered graph (DESIGN.md §15). Omitted fields mean the counting
// defaults — k 4, ε 0.25, 4096 samples, confidence 0.99, seed 1 — the
// same defaults cmd/nearclique -count documents. ε shares the solve
// path's (0, 0.5) range because it resolves through the same solver
// option. Seed is a pointer for the same reason SolveRequest's is: 0 is
// a legitimate seed. timeout_ms and flight behave exactly as on
// /v1/solve (flight-traced requests bypass the result cache).
type CountRequest struct {
	Graph      string  `json:"graph"`
	K          int     `json:"k,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Seed       *int64  `json:"seed,omitempty"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
	Flight     int     `json:"flight,omitempty"`
}

// countParams is a CountRequest with every default applied — the
// canonical record its cache key is built from, mirroring solveParams.
// It is the count kind of the job pipeline (job.go).
type countParams struct {
	k          int
	eps        float64
	samples    int
	confidence float64
	seed       int64
}

func (req *CountRequest) graphName() string { return req.Graph }

// resolve canonicalizes the request. Range validation (k, samples,
// confidence, ε) happens in the solver build, which reuses the Solver's
// eager option validation verbatim — invalid parameters 400 before
// admission and can never populate or hit the cache.
func (req *CountRequest) resolve(cfg Config) (job, error) {
	p := countParams{k: 4, eps: 0.25, samples: 4096, confidence: 0.99, seed: 1}
	if req.K != 0 {
		p.k = req.K
	}
	if req.Epsilon != 0 {
		p.eps = req.Epsilon
	}
	if req.Samples != 0 {
		p.samples = req.Samples
	}
	if req.Confidence != 0 {
		p.confidence = req.Confidence
	}
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	return newJob(p, req.TimeoutMS, req.Flight, cfg)
}

// options run the estimator on the shadow engine. It is bit-identical at
// any worker count (the shadow conformance suite pins this), so the
// pipeline's parallelism cap only affects speed.
func (p countParams) options() []nearclique.Option {
	return []nearclique.Option{
		nearclique.WithEngine(nearclique.EngineShadow),
		nearclique.WithCliqueSize(p.k),
		nearclique.WithEpsilon(p.eps),
		nearclique.WithSamples(p.samples),
		nearclique.WithConfidence(p.confidence),
		nearclique.WithSeed(p.seed),
	}
}

// key is the counting twin of the solve key: the graph digest, a
// "count" family tag so solve and count entries can never alias, then
// every resolved parameter in fixed order with the same canonical float
// formatting ('g', shortest round-trip) — "0.10", "0.1", and "1e-1"
// share one entry. timeout is excluded for the same reason as on the
// solve key: only completed runs are cached and the estimator is
// deterministic, so a deadline decides whether, never what.
func (p countParams) key(digest string) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return digest +
		"|count" +
		"|k=" + strconv.Itoa(p.k) +
		"|eps=" + f(p.eps) +
		"|s=" + strconv.Itoa(p.samples) +
		"|conf=" + f(p.confidence) +
		"|seed=" + strconv.FormatInt(p.seed, 10)
}

// route: counting has one engine, so there is nothing to resolve.
func (p countParams) route(*costmodel.Model, *graph.Graph) kind { return p }

// features assembles cost-model features for a counting request: the
// "shadow" engine family with the clique size and draw count that drive
// its work term (costmodel.Features.work).
func (p countParams) features(g *graph.Graph) costmodel.Features {
	return costmodel.Features{
		Engine:  "shadow",
		N:       g.N(),
		M:       g.M(),
		Epsilon: p.eps,
		Sample:  float64(p.samples),
		K:       p.k,
	}
}

// exec runs the count and renders the CountRun schema. The estimator has
// no message rounds, so leaves and hits stand in for rounds and frames —
// which is what the /statz flight aggregate and the cost-model
// auxiliaries see. Its phase sub-spans are count/shadow-build and
// count/shadow-sample.
func (p countParams) exec(ctx context.Context, solver *nearclique.Solver, g *graph.Graph) (ran, error) {
	start := time.Now()
	res, err := solver.Count(ctx, g)
	end := time.Now()
	rec := report.FromCount("shadow", g, res, end.Sub(start), err)
	return ran{
		rec: &rec, flight: &rec.Flight, trace: &rec.Trace, span: "count", start: start, end: end,
		rounds: int64(rec.CliqueLeaves + rec.NearLeaves), frames: rec.CliqueHits + rec.NearHits,
	}, err
}

// failBody renders a failed count as a CountRun envelope with the error.
func (p countParams) failBody(g *graph.Graph, wall time.Duration, err error) []byte {
	body, _ := json.Marshal(report.FromCount("shadow", g, nil, wall, err))
	return append(body, '\n')
}
