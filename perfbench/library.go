package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"nearclique"
	"nearclique/internal/expt"
	"nearclique/internal/flight"
)

// Nominal closed-loop rates (ops/s) of the library workloads on a 2-core
// x86 host at the time the benchmark was written. A run times a fixed op
// count, rate × --seconds, so every workload seed measures the same
// solver seeds 1..N; the timed phase lasts about --seconds today.
const (
	solveRate  = 8.0
	searchRate = 1.0
	countRate  = 5.0
)

// overrunFactor bounds a timed phase: past overrunFactor × --seconds no
// further op starts (the run is then marked truncated in its metadata).
const overrunFactor = 4

// libWorkload describes one library workload.
type libWorkload struct {
	scale expt.ScalePoint
	rate  float64
	entry string // entry-point span name
	// op runs one op on solver seed and returns its per-op record; rec
	// is nil in untraced passes.
	op func(in *instance, seed int64, rec *flight.Recorder) (opRecord, error)
	// check validates one op's output.
	check func(in *instance, r opRecord) error
}

// opRecord is what one library op returns to the loop.
type opRecord struct {
	best      []int   // best set (solve, search)
	eps       float64 // the set's ε (search: the found ε)
	samples   []int   // SampleSizes
	maxComp   int
	estimate  *nearclique.CountResult
	recovered float64
}

// passStats is one closed-loop pass over seeds 1..n.
type passStats struct {
	latMS     []float64
	wallS     float64 // Σ op latency: the single caller's busy time
	truncated bool
	records   []opRecord
	layers    map[string]float64 // traced passes: per-layer sums
	digest    hash.Hash64        // over the count estimates, in seed order
}

var allocMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// allocs returns the process's cumulative heap allocations.
func allocs() (objects, bytes uint64) {
	s := append([]metrics.Sample(nil), allocMetrics...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runPass runs ops for seeds 1..n with one caller. With a tracer each
// seed runs twice back to back, untraced into plain and then traced into
// the returned stats, so host noise hits both alike and the pairs measure
// the tracing overhead.
func runPass(w libWorkload, in *instance, n int, deadline time.Duration, tr *tracer, parent int, c *checker) (ps, plain passStats) {
	ps, plain = newPassStats(), newPassStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		if time.Since(start) > deadline {
			ps.truncated = true
			break
		}
		seed := int64(i + 1)
		if tr != nil {
			runOp(w, in, seed, nil, 0, &plain, c)
		}
		runOp(w, in, seed, tr, parent, &ps, c)
	}
	return ps, plain
}

func newPassStats() passStats {
	return passStats{layers: map[string]float64{}, digest: fnv.New64a()}
}

// runOp runs and checks one op, adding it to ps. A traced op gets a
// flight recorder whose events become spans.
func runOp(w libWorkload, in *instance, seed int64, tr *tracer, parent int, ps *passStats, c *checker) {
	var rec *flight.Recorder
	var o0, b0 uint64
	if tr != nil {
		rec = flight.New(4096)
		o0, b0 = allocs()
	}
	t0 := time.Now()
	r, err := w.op(in, seed, rec)
	t1 := time.Now()
	lat := t1.Sub(t0)
	ps.latMS = append(ps.latMS, float64(lat.Nanoseconds())/1e6)
	ps.wallS += lat.Seconds()
	if err != nil {
		c.fail("%s seed %d: %v", w.entry, seed, err)
		return
	}
	if tr != nil {
		o1, b1 := allocs()
		ps.layers["allocs"] += float64(o1 - o0)
		ps.layers["alloc_bytes"] += float64(b1 - b0)
		opSpan := tr.add(parent, w.entry, "nearclique", seed, t0, t1)
		flightSpans(tr, opSpan, seed, rec, t0, t1, ps.layers)
	}
	if err := w.check(in, r); err != nil {
		c.fail("%s seed %d: %v", w.entry, seed, err)
	}
	if e := r.estimate; e != nil {
		fmt.Fprintf(ps.digest, "%x %x %d %d;", math.Float64bits(e.Cliques), math.Float64bits(e.NearCliques), e.CliqueHits, e.NearHits)
	}
	ps.records = append(ps.records, r)
}

// flightSpans turns one op's flight events into phase sub-spans and adds
// the per-phase durations to layers. A phase event is stamped when the
// phase ends; it starts where the previous event ended. Round events are
// frontier waves (search); the time after the last event of a search op
// is its ε-bisection.
func flightSpans(tr *tracer, parent int, op int64, rec *flight.Recorder, t0, t1 time.Time, layers map[string]float64) {
	epoch := rec.Epoch()
	if rec.Dropped() > 0 {
		layers["dropped"]++
	}
	prev := t0
	phaseStart := t0
	var waveSpans [][3]time.Time
	waves := 0
	for _, ev := range rec.Snapshot() {
		at := epoch.Add(time.Duration(ev.WallNS))
		switch ev.Kind {
		case flight.KindRound:
			waveSpans = append(waveSpans, [3]time.Time{prev, at})
			waves++
			layers["waves"]++
			layers["edges_examined"] += float64(ev.Frames)
			layers["wave_s"] += at.Sub(prev).Seconds()
		case flight.KindPhase:
			name := rec.PhaseName(ev.Phase)
			var span, layer string
			switch {
			case strings.HasSuffix(name, "/explore"):
				span, layer = "core.explore", "core"
				layers["explore_s"] += at.Sub(phaseStart).Seconds()
			case name == "decide":
				span, layer = "core.decide", "core"
				layers["decide_s"] += at.Sub(phaseStart).Seconds()
			case name == "shadow-build":
				span, layer = "shadow.build", "shadow"
				layers["build_s"] += at.Sub(phaseStart).Seconds()
			case name == "shadow-sample":
				span, layer = "shadow.sample", "shadow"
				layers["sample_s"] += at.Sub(phaseStart).Seconds()
			default:
				span, layer = "phase."+name, "core"
			}
			id := tr.add(parent, span, layer, op, phaseStart, at)
			for _, w := range waveSpans {
				tr.add(id, "frontier.wave", "frontier", op, w[0], w[1])
			}
			waveSpans = waveSpans[:0]
			phaseStart = at
		}
		prev = at
	}
	layers["traverse_s"] += prev.Sub(t0).Seconds()
	if waves > 0 {
		tr.add(parent, "core.search_probe", "core", op, prev, t1)
		layers["probe_s"] += t1.Sub(prev).Seconds()
	}
}

// runLibrary runs one library workload: set-up (median of setupRuns),
// then either the timed untraced pass (trace 0) or an untraced and a
// traced pass over the same seeds (trace 1).
func runLibrary(cfg runConfig, w libWorkload) (*outcome, error) {
	dir := filepath.Join(cfg.buildDir, "tmp", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	var tr *tracer
	setupTimes := map[string]float64{}
	if cfg.trace {
		tr = newTracer()
	}
	c := &checker{}
	in, runs, err := setupRepeated(tr, setupTimes,
		func(tr *tracer, parent int, times map[string]float64) (*instance, error) {
			in, err := buildInstance(w.scale, cfg.seed, dir, tr, parent, times)
			if err != nil {
				return nil, err
			}
			// One warm-up op on seed 0, outside the timed seeds, faults
			// in the mapped snapshot and fills the solver's pools.
			t0 := time.Now()
			r, err := w.op(in, 0, nil)
			if err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if err := w.check(in, r); err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			tr.add(parent, "warmup", "nearclique", 0, t0, time.Now())
			return in, nil
		},
		func(in *instance) { in.close() })
	if err != nil {
		return nil, err
	}
	defer in.close()

	n := max(1, int(math.Round(w.rate*float64(cfg.seconds))))
	deadline := time.Duration(overrunFactor*cfg.seconds) * time.Second
	out := &outcome{checks: c}
	out.meta.SetupRuns = runs

	if !cfg.trace {
		resetPeakRSS()
		ps, _ := runPass(w, in, n, deadline, nil, 0, c)
		sum := summarize(ps.latMS)
		out.attempted, out.failed = len(ps.latMS), c.failures()
		out.e2e = e2eMetrics(median(runs), float64(len(ps.latMS))/ps.wallS, sum.p50, sum.tail, out.attempted, out.failed)
		out.meta.Ops, out.meta.TailPct, out.meta.TailBeyond, out.meta.Truncated = sum.n, sum.tailPct, sum.beyond, ps.truncated
		if w.entry == "nearclique.Solver.Count" {
			out.meta.Digest = fmt.Sprintf("%016x", ps.digest.Sum64())
		}
		return out, nil
	}

	// Traced run: the first half of the seeds, each untraced then traced.
	vals := setupTimes
	parse, err := edgeListParse(in.g)
	if err != nil {
		return nil, err
	}
	vals["graphio.edgelist_parse_s"] = parse
	half := max(1, n/2)
	gc0 := readGC()
	timed := tr.open(0, "timed", "", -1)
	traced, plain := runPass(w, in, half, deadline/2, tr, timed, c)
	tr.end(timed)
	addGC(vals, gc0)
	if a, b := plain.digest.Sum64(), traced.digest.Sum64(); a != b {
		c.fail("%s: estimate digest %016x untraced vs %016x traced", w.entry, a, b)
	}
	vals["trace.overhead_frac"] = traced.wallS/plain.wallS - 1
	libraryLayers(w, traced, vals)
	addSelfTimes(vals, tr)

	out.attempted = len(plain.latMS) + len(traced.latMS)
	out.meta.Ops = len(traced.latMS)
	out.meta.Digest = fmt.Sprintf("%016x", traced.digest.Sum64())
	out.meta.Truncated = plain.truncated || traced.truncated
	if traced.layers["dropped"] > 0 {
		c.fail("%s: flight recorder dropped events in %v ops", w.entry, traced.layers["dropped"])
	}
	out.failed = c.failures()
	if out.meta.TraceFile, err = tr.write(filepath.Join(cfg.buildDir, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	out.layers = layerMetrics(vals)
	return out, nil
}

// libraryLayers converts a traced pass's sums into per-op layer metrics.
func libraryLayers(w libWorkload, ps passStats, vals map[string]float64) {
	ops := float64(len(ps.records))
	if ops == 0 {
		return
	}
	l := ps.layers
	var sampleNodes, subsetWork, recovered, maxComp float64
	var leaves, hits, drawn float64
	for _, r := range ps.records {
		for _, s := range r.samples {
			sampleNodes += float64(s)
		}
		subsetWork += math.Ldexp(1, r.maxComp)
		maxComp = math.Max(maxComp, float64(r.maxComp))
		recovered += r.recovered
		if e := r.estimate; e != nil {
			leaves += float64(e.CliqueLeaves + e.NearLeaves)
			hits += float64(e.CliqueHits + e.NearHits)
			drawn += float64(e.Samples)
			if e.NearLeaves > 0 && e.NearWeight > 0 {
				drawn += float64(e.Samples)
			}
		}
	}
	switch w.entry {
	case "nearclique.Solver.Solve", "nearclique.Solver.Search":
		vals["core.sample_nodes"] = sampleNodes / ops
		vals["core.max_component_max"] = maxComp
		vals["core.subset_work"] = subsetWork / ops
		vals["quality.recovered_frac"] = recovered / ops
	}
	switch w.entry {
	case "nearclique.Solver.Solve":
		vals["core.explore_s"] = l["explore_s"] / ops
		vals["core.decide_s"] = l["decide_s"] / ops
		vals["core.allocs_per_op"] = l["allocs"] / ops
		vals["core.alloc_bytes_per_op"] = l["alloc_bytes"] / ops
	case "nearclique.Solver.Search":
		vals["search.traverse_s"] = l["traverse_s"] / ops
		vals["search.probe_s"] = l["probe_s"] / ops
		vals["search.allocs_per_op"] = l["allocs"] / ops
		vals["frontier.waves"] = l["waves"] / ops
		vals["frontier.edges_examined"] = l["edges_examined"] / ops
		vals["frontier.wave_s"] = l["wave_s"] / ops
	case "nearclique.Solver.Count":
		vals["shadow.build_s"] = l["build_s"] / ops
		vals["shadow.sample_s"] = l["sample_s"] / ops
		vals["shadow.leaves"] = leaves / ops
		if drawn > 0 {
			vals["shadow.hit_frac"] = hits / drawn
			vals["shadow.allocs_per_sample"] = l["allocs"] / drawn
		}
		if l["sample_s"] > 0 {
			vals["shadow.samples_per_s"] = drawn / l["sample_s"]
		}
	}
}

// recoveredShare is the share of the planted set (nodes 0..size-1)
// inside members.
func recoveredShare(members []int, size int) float64 {
	hit := 0
	for _, v := range members {
		if v < size {
			hit++
		}
	}
	return float64(hit) / float64(size)
}

// checkBest validates a best set: an ε-near clique of at least the
// guaranteed size. An empty result is valid output (a sample that missed
// the planted set commits nothing); it shows as zero recovery.
func checkBest(in *instance, best []int, eps float64) error {
	if best == nil {
		return nil
	}
	if !nearclique.IsNearClique(in.g, best, eps) {
		return fmt.Errorf("best set of %d is not an ε=%v near-clique", len(best), eps)
	}
	if len(best) < in.minSize() {
		return fmt.Errorf("best set of %d below the guaranteed size %d", len(best), in.minSize())
	}
	return nil
}

func solveWorkload() libWorkload {
	return libWorkload{
		scale: solveScale,
		rate:  solveRate,
		entry: "nearclique.Solver.Solve",
		op: func(in *instance, seed int64, rec *flight.Recorder) (opRecord, error) {
			opts := []nearclique.Option{
				nearclique.WithEpsilon(0.25),
				nearclique.WithExpectedSample(in.sample()),
				nearclique.WithMinSize(in.minSize()),
				nearclique.WithSeed(seed),
			}
			if rec != nil {
				opts = append(opts, nearclique.WithFlightRecorder(rec))
			}
			s, err := nearclique.New(opts...)
			if err != nil {
				return opRecord{}, err
			}
			res, err := s.Solve(context.Background(), in.g)
			if err != nil {
				return opRecord{}, err
			}
			r := opRecord{eps: 0.25, samples: res.SampleSizes, maxComp: res.MaxComponent}
			if b := res.Best(); b != nil {
				r.best = b.Members
				r.recovered = recoveredShare(b.Members, in.pt.Size)
			}
			return r, nil
		},
		check: func(in *instance, r opRecord) error { return checkBest(in, r.best, r.eps) },
	}
}

func searchWorkload() libWorkload {
	return libWorkload{
		scale: smallScale,
		rate:  searchRate,
		entry: "nearclique.Solver.Search",
		op: func(in *instance, seed int64, rec *flight.Recorder) (opRecord, error) {
			opts := []nearclique.Option{
				nearclique.WithExpectedSample(in.sample()),
				nearclique.WithSeed(seed),
			}
			if rec != nil {
				opts = append(opts, nearclique.WithFlightRecorder(rec))
			}
			s, err := nearclique.New(opts...)
			if err != nil {
				return opRecord{}, err
			}
			rho := float64(in.minSize()) / float64(in.pt.N)
			eps, res, err := s.Search(context.Background(), in.g, rho)
			if err != nil {
				return opRecord{}, err
			}
			r := opRecord{eps: eps, samples: res.SampleSizes, maxComp: res.MaxComponent}
			if b := res.Best(); b != nil {
				r.best = b.Members
				r.recovered = recoveredShare(b.Members, in.pt.Size)
			}
			return r, nil
		},
		check: func(in *instance, r opRecord) error { return checkBest(in, r.best, r.eps) },
	}
}

func countWorkload() libWorkload {
	return libWorkload{
		scale: smallScale,
		rate:  countRate,
		entry: "nearclique.Solver.Count",
		op: func(in *instance, seed int64, rec *flight.Recorder) (opRecord, error) {
			opts := []nearclique.Option{
				nearclique.WithEngine(nearclique.EngineShadow),
				nearclique.WithCliqueSize(4),
				nearclique.WithEpsilon(0.25),
				nearclique.WithSamples(16384),
				nearclique.WithConfidence(0.99),
				nearclique.WithSeed(seed),
			}
			if rec != nil {
				opts = append(opts, nearclique.WithFlightRecorder(rec))
			}
			s, err := nearclique.New(opts...)
			if err != nil {
				return opRecord{}, err
			}
			res, err := s.Count(context.Background(), in.g)
			if err != nil {
				return opRecord{}, err
			}
			return opRecord{estimate: res}, nil
		},
		check: func(in *instance, r opRecord) error { return checkEstimate(r.estimate) },
	}
}

// checkEstimate validates a count: finite, non-negative estimates that
// sampled at least one clique, with the near count consistent with the
// clique count within both bounds.
func checkEstimate(e *nearclique.CountResult) error {
	for _, v := range []float64{e.Cliques, e.CliquesErrBound, e.NearCliques, e.NearErrBound} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("non-finite or negative estimate %v", v)
		}
	}
	if e.NearCliques+e.NearErrBound < e.Cliques-e.CliquesErrBound {
		return fmt.Errorf("near-clique estimate %v below the clique estimate %v beyond both bounds", e.NearCliques, e.Cliques)
	}
	if e.CliqueHits == 0 {
		return fmt.Errorf("no sampled clique on an instance with a planted near-clique")
	}
	return nil
}

func runSolve(cfg runConfig) (*outcome, error)  { return runLibrary(cfg, solveWorkload()) }
func runSearch(cfg runConfig) (*outcome, error) { return runLibrary(cfg, searchWorkload()) }
func runCount(cfg runConfig) (*outcome, error)  { return runLibrary(cfg, countWorkload()) }
