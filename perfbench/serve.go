package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nearclique/internal/report"
	"nearclique/internal/server"
)

// Serve workload shape. Phase 1 is an open loop at serveRate for
// servePhase1 of --seconds. Phase 2 is a closed loop over one
// connection, run as serveRounds identical rounds, each against a fresh
// server warmed the same way: a round sends the same scripted requests,
// serveCapacity × the rest of --seconds ÷ serveRounds of them (about the
// rest of --seconds in all on a 2-core x86 host today). Phase 2 gives the
// end-to-end metrics, phase 1 per-layer ones. Its throughput, median
// and tail are medians over the rounds, so a burst of load from outside
// the process moves one round, not the result. One connection keeps the
// process's runnable threads within two cores; more measure the host's
// scheduler (README.md).
const (
	serveRate     = 20.0
	servePhase1   = 0.25
	serveCapacity = 36.0
	serveRounds   = 5
	hotSeeds      = 16
	graphName     = "bench"
)

// Seed ranges per request kind. Every workload seed uses the same solver
// seeds (see README.md); the workload seed shuffles the request order and
// the arrival times.
const (
	hotSeedBase     = 1_000_000
	shardedSeedBase = 2_000_000
	batchSeedBase   = 3_000_000
	countSeedBase   = 4_000_000
)

type reqKind int

const (
	kindFresh   reqKind = iota // fresh-seed /v1/solve auto (every tenth refines)
	kindHot                    // /v1/solve on one of the hot seeds
	kindCount                  // fresh /v1/count k=3
	kindSharded                // fresh /v1/solve engine=sharded
	kindBatch                  // /v1/batch of 4 fresh seeds
)

var kindNames = [...]string{"fresh", "hot", "count", "sharded", "batch"}

// mix is the request mix in percent, indexed by reqKind.
var mix = [...]int{60, 25, 10, 3, 2}

// request is one scripted request.
type request struct {
	kind   reqKind
	seeds  []int64
	refine bool
}

// counters hands out fresh seeds per kind, continuing across phases.
type counters struct {
	fresh, count, sharded, batch int64
}

// mixCounts splits n requests over the mix by largest remainder, so the
// counts are exact and depend on n only.
func mixCounts(n int) [len(mix)]int {
	var counts [len(mix)]int
	type rem struct {
		k    int
		frac float64
	}
	var rems []rem
	total := 0
	for k, pct := range mix {
		exact := float64(n) * float64(pct) / 100
		counts[k] = int(exact)
		total += counts[k]
		rems = append(rems, rem{k, exact - float64(counts[k])})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; total < n; i++ {
		counts[rems[i%len(rems)].k]++
		total++
	}
	return counts
}

// deckSeed fixes the order of request kinds in every script.
const deckSeed = 1

// script builds n requests in the exact mix proportions. The order of
// kinds is a fixed shuffle and fresh seeds are numbered in script order
// from ctr, so every run sends the same fresh requests at the same
// positions: the heavy-tail ones meet the same neighbours in every run.
// The workload seed (rng) picks the hot seeds.
func script(n int, rng *rand.Rand, ctr *counters) []request {
	counts := mixCounts(n)
	kinds := make([]reqKind, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			kinds = append(kinds, reqKind(k))
		}
	}
	rand.New(rand.NewSource(deckSeed)).Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]request, n)
	for i, k := range kinds {
		r := request{kind: k}
		switch k {
		case kindFresh:
			ctr.fresh++
			r.seeds = []int64{ctr.fresh}
			r.refine = ctr.fresh%10 == 0
		case kindHot:
			r.seeds = []int64{hotSeedBase + rng.Int63n(hotSeeds)}
		case kindCount:
			ctr.count++
			r.seeds = []int64{countSeedBase + ctr.count}
		case kindSharded:
			ctr.sharded++
			r.seeds = []int64{shardedSeedBase + ctr.sharded}
		case kindBatch:
			for j := 0; j < 4; j++ {
				ctr.batch++
				r.seeds = append(r.seeds, batchSeedBase+ctr.batch)
			}
		}
		out[i] = r
	}
	return out
}

// schedule returns n arrival offsets over d: one per slot of d/n, each at
// a uniform point of its slot drawn from rng. The rate stays steady; the
// workload seed only moves arrivals within their slots.
func schedule(n int, d time.Duration, rng *rand.Rand) []time.Duration {
	at := make([]time.Duration, n)
	slot := float64(d) / float64(n)
	for i := range at {
		at[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return at
}

// serveEnv is one running server with its client.
type serveEnv struct {
	in     *instance
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{} // closed when Serve returns
	// filled maps a request body to the miss body that filled its cache
	// entry; check alone uses it.
	filled map[string][]byte
}

// startServe starts an in-process server on a loopback port with the
// instance loaded from its snapshot, then warms the hot seeds.
func startServe(in *instance, tr *tracer, parent int) (*serveEnv, error) {
	t0 := time.Now()
	srv := server.New(server.Config{})
	if _, err := srv.LoadGraph(graphName, in.path); err != nil {
		srv.Close()
		return nil, fmt.Errorf("load graph: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		in:   in,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		}},
		done:   make(chan struct{}),
		filled: map[string][]byte{},
	}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()
	t1 := time.Now()
	tr.add(parent, "server.start", "server", -1, t0, t1)
	c := &checker{}
	for i := int64(0); i < hotSeeds; i++ {
		r := []reqResult{e.do(request{kind: kindHot, seeds: []int64{hotSeedBase + i}})}
		if e.check(r, c); c.failures() > 0 {
			e.stop()
			return nil, fmt.Errorf("warm-up seed %d: %v", hotSeedBase+i, c.sample())
		}
	}
	tr.add(parent, "server.warmup", "server", -1, t1, time.Now())
	return e, nil
}

// stop shuts the HTTP server and the nearclique server down and waits
// for the serving goroutine.
func (e *serveEnv) stop() {
	e.hs.Shutdown(context.Background())
	<-e.done
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// reqResult is one completed request.
type reqResult struct {
	req     request
	reqBody []byte
	body    []byte
	cache   string
	due     time.Time // scheduled send (phase 1) or send (phase 2)
	sendAt  time.Time
	doneAt  time.Time
	err     error
	engines []string
	wallNS  int64
	runs    []report.Run // solve and batch bodies
}

// body renders the JSON body and path of a request.
func (e *serveEnv) body(r request) (string, []byte) {
	solve := func(seed int64, engine string, refine bool) server.SolveRequest {
		s := seed
		req := server.SolveRequest{
			Graph:          graphName,
			Engine:         engine,
			Epsilon:        0.25,
			ExpectedSample: e.in.sample(),
			MinSize:        e.in.minSize(),
			Seed:           &s,
		}
		if refine {
			req.Refine = "near"
		}
		return req
	}
	var v any
	path := "/v1/solve"
	switch r.kind {
	case kindFresh, kindHot:
		v = solve(r.seeds[0], "auto", r.refine)
	case kindSharded:
		v = solve(r.seeds[0], "sharded", false)
	case kindBatch:
		var b server.BatchRequest
		for _, s := range r.seeds {
			b.Requests = append(b.Requests, solve(s, "auto", false))
		}
		v, path = b, "/v1/batch"
	case kindCount:
		s := r.seeds[0]
		v, path = server.CountRequest{Graph: graphName, K: 3, Epsilon: 0.25, Samples: 4096, Confidence: 0.99, Seed: &s}, "/v1/count"
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return path, data
}

// do sends one request and reads the whole response. Checks run later,
// outside the timed phases, so the client spends as little CPU as
// possible while the server is measured.
func (e *serveEnv) do(r request) reqResult {
	path, data := e.body(r)
	res := reqResult{req: r, reqBody: data, sendAt: time.Now()}
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		res.err = fmt.Errorf("transport: %w", err)
		res.doneAt = time.Now()
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.doneAt = time.Now()
	res.cache, res.body = resp.Header.Get("X-Nearclique-Cache"), body
	if err != nil || resp.StatusCode/100 != 2 {
		res.err = fmt.Errorf("status %d: %v %s", resp.StatusCode, err, bytes.TrimSpace(body))
	}
	return res
}

// check validates completed requests in completion order, so each cache
// hit is compared with the miss that filled its key before it.
func (e *serveEnv) check(results []reqResult, c *checker) {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return results[order[a]].doneAt.Before(results[order[b]].doneAt) })
	for _, i := range order {
		res := &results[i]
		err := res.err
		if err == nil {
			err = e.checkBody(res)
		}
		if err != nil {
			c.fail("%s seeds %v: %v", kindNames[res.req.kind], res.req.seeds, err)
		}
	}
}

// checkBody validates a 2xx body and fills the result's fields.
func (e *serveEnv) checkBody(res *reqResult) error {
	switch res.req.kind {
	case kindCount:
		var cr report.CountRun
		if err := json.Unmarshal(res.body, &cr); err != nil || cr.Error != "" {
			return fmt.Errorf("bad count body: %v %s", err, cr.Error)
		}
		res.engines, res.wallNS = []string{cr.Engine}, cr.WallNS
		if bad := !(cr.Cliques >= 0 && cr.NearCliques >= 0) || math.IsInf(cr.Cliques, 0) || math.IsInf(cr.NearCliques, 0) || cr.CliqueHits == 0; bad {
			return fmt.Errorf("implausible estimate cliques=%v near=%v hits=%d", cr.Cliques, cr.NearCliques, cr.CliqueHits)
		}
		return nil
	case kindBatch:
		sc := bufio.NewScanner(bytes.NewReader(res.body))
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var run report.Run
			if err := json.Unmarshal(sc.Bytes(), &run); err != nil || run.Error != "" {
				return fmt.Errorf("bad batch line: %v %s", err, run.Error)
			}
			res.runs = append(res.runs, run)
			res.engines = append(res.engines, run.Engine)
			res.wallNS += run.WallNS
		}
		if len(res.runs) != len(res.req.seeds) {
			return fmt.Errorf("%d batch lines, want %d", len(res.runs), len(res.req.seeds))
		}
	default:
		var run report.Run
		if err := json.Unmarshal(res.body, &run); err != nil || run.Error != "" {
			return fmt.Errorf("bad solve body: %v %s", err, run.Error)
		}
		res.runs, res.engines, res.wallNS = []report.Run{run}, []string{run.Engine}, run.WallNS
		key := string(res.reqBody)
		fill, seen := e.filled[key]
		if res.cache == "miss" && !seen {
			e.filled[key] = res.body
		}
		if res.cache == "hit" && !bytes.Equal(fill, res.body) {
			return fmt.Errorf("cache hit body differs from the miss that filled it")
		}
	}
	for _, run := range res.runs {
		var best []int
		if len(run.Candidates) > 0 {
			best = run.Candidates[0].Members
		}
		if err := checkBest(e.in, best, 0.25); err != nil {
			return err
		}
	}
	return nil
}

// phaseStats is the outcome of one serving phase.
type phaseStats struct {
	results []reqResult
	latMS   []float64 // from scheduled send (phase 1) or send (phase 2)
	lateMS  []float64 // generator lateness (phase 1)
	wallS   float64
}

// openLoop sends reqs at their scheduled offsets regardless of
// completions and times each from its scheduled send.
func (e *serveEnv) openLoop(reqs []request, at []time.Duration) phaseStats {
	ps := phaseStats{results: make([]reqResult, len(reqs)), latMS: make([]float64, len(reqs)), lateMS: make([]float64, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(at[i])
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r := e.do(reqs[i])
			r.due = due
			ps.results[i] = r
			ps.latMS[i] = float64(r.doneAt.Sub(due).Nanoseconds()) / 1e6
			ps.lateMS[i] = float64(r.sendAt.Sub(due).Nanoseconds()) / 1e6
		}(i, due)
	}
	wg.Wait()
	ps.wallS = since(start)
	return ps
}

// closedLoop runs reqs over one connection, sending each request when
// the previous one completes. It reports whether the deadline stopped it.
func (e *serveEnv) closedLoop(reqs []request, deadline time.Duration) (phaseStats, bool) {
	var ps phaseStats
	start := time.Now()
	for _, req := range reqs {
		if time.Since(start) > deadline {
			ps.wallS = since(start)
			return ps, true
		}
		r := e.do(req)
		r.due = r.sendAt
		ps.results = append(ps.results, r)
		ps.latMS = append(ps.latMS, float64(r.doneAt.Sub(r.sendAt).Nanoseconds())/1e6)
	}
	ps.wallS = since(start)
	return ps, false
}

// engineLayer maps a body's engine to the module that executed it.
func engineLayer(engine string) string {
	switch engine {
	case "seq":
		return "core"
	case "frontier":
		return "frontier"
	case "sharded":
		return "congest"
	case "shadow":
		return "shadow"
	}
	return "server"
}

// traceRequest records a request span (server layer: HTTP, decode,
// admission, cache, encode) with its execution as a child span ending
// at the response, sized by the body's wall_ns (misses only).
func traceRequest(tr *tracer, parent int, id int64, r reqResult) {
	if tr == nil {
		return
	}
	if r.sendAt.After(r.due) {
		tr.add(parent, "loadgen.late", "", id, r.due, r.sendAt)
	}
	span := tr.add(parent, "http."+kindNames[r.req.kind], "server", id, r.sendAt, r.doneAt)
	if r.err == nil && r.cache != "hit" && r.wallNS > 0 && len(r.engines) > 0 {
		exec := min(time.Duration(r.wallNS), r.doneAt.Sub(r.sendAt))
		tr.add(span, "exec."+r.engines[0], engineLayer(r.engines[0]), id, r.doneAt.Add(-exec), r.doneAt)
	}
}

// statz reads /statz.
func (e *serveEnv) statz() (report.ServerStats, error) {
	var st report.ServerStats
	resp, err := e.client.Get(e.base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// histSums reads the exact _sum (seconds) and _count of the admission
// wait and job execution histograms from /metricsz.
func (e *serveEnv) histSums() (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !(strings.HasPrefix(name, "nearclique_admission_wait_seconds_") || strings.HasPrefix(name, "nearclique_job_exec_seconds_")) {
			continue
		}
		if strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("metricsz %s: %w", name, err)
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}

// servePlan is the scripted load of one run.
type servePlan struct {
	p1 []request
	at []time.Duration
	p2 []request // one phase-2 round
}

func planServe(seed int64, seconds float64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	p1Length := time.Duration(servePhase1 * seconds * float64(time.Second))
	n1 := max(1, int(math.Round(serveRate*p1Length.Seconds())))
	n2 := max(1, int(math.Round(serveCapacity*(1-servePhase1)*seconds/serveRounds)))
	var ctr counters
	p1 := script(n1, rng, &ctr)
	at := schedule(n1, p1Length, rng)
	p2 := script(n2, rng, &ctr)
	return servePlan{p1: p1, at: at, p2: p2}
}

// servePass is one set-up-to-teardown serving measurement. p2 pools
// the rounds' requests; rounds keeps each round's own.
type servePass struct {
	p1, p2         phaseStats
	rounds         []phaseStats
	truncated      bool
	statz0, statz1 report.ServerStats
	hist0, hist1   map[string]float64
}

// runServePhases runs phase 1 against e, then each phase-2 round against
// a fresh server on e's instance.
func runServePhases(e *serveEnv, plan servePlan, deadline time.Duration, tr *tracer, parent int, c *checker) (*servePass, error) {
	sp := &servePass{}
	var err error
	if sp.statz0, err = e.statz(); err != nil {
		return nil, err
	}
	if sp.hist0, err = e.histSums(); err != nil {
		return nil, err
	}
	start := time.Now()
	sp.p1 = e.openLoop(plan.p1, plan.at)
	if sp.statz1, err = e.statz(); err != nil {
		return nil, err
	}
	if sp.hist1, err = e.histSums(); err != nil {
		return nil, err
	}
	e.check(sp.p1.results, c)
	for r := 0; r < serveRounds && !sp.truncated; r++ {
		// Every round starts from the same heap: the previous round's
		// server is garbage by now.
		runtime.GC()
		re, err := startServe(e.in, tr, parent)
		if err != nil {
			return nil, err
		}
		var round phaseStats
		round, sp.truncated = re.closedLoop(plan.p2, deadline-time.Since(start))
		re.stop()
		if len(round.results) == 0 {
			break
		}
		re.check(round.results, c)
		sp.rounds = append(sp.rounds, round)
		sp.p2.results = append(sp.p2.results, round.results...)
	}
	for i, r := range append(sp.p1.results, sp.p2.results...) {
		traceRequest(tr, parent, int64(i), r)
	}
	return sp, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	dir := filepath.Join(cfg.buildDir, "tmp", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	var tr *tracer
	vals := map[string]float64{}
	if cfg.trace {
		tr = newTracer()
	}
	build := func(tr *tracer, parent int, times map[string]float64) (*serveEnv, error) {
		in, err := buildInstance(smallScale, cfg.seed, dir, tr, parent, times)
		if err != nil {
			return nil, err
		}
		e, err := startServe(in, tr, parent)
		if err != nil {
			in.close()
			return nil, err
		}
		return e, nil
	}
	release := func(e *serveEnv) { e.stop(); e.in.close() }
	e, runs, err := setupRepeated(tr, vals, build, release)
	if err != nil {
		return nil, err
	}
	defer release(e)
	c := &checker{}
	out := &outcome{checks: c}
	out.meta.SetupRuns = runs
	deadline := time.Duration(overrunFactor*cfg.seconds) * time.Second
	if cfg.trace {
		parse, err := edgeListParse(e.in.g)
		if err != nil {
			return nil, err
		}
		vals["graphio.edgelist_parse_s"] = parse
	}

	// Request spans are built from the results after the phases, so a
	// traced run sends exactly what an untraced one does.
	resetPeakRSS()
	gc0 := readGC()
	timed := tr.open(0, "timed", "", -1)
	sp, err := runServePhases(e, planServe(cfg.seed, float64(cfg.seconds)), deadline, tr, timed, c)
	tr.end(timed)
	if err != nil {
		return nil, err
	}
	// The gated latencies come from the closed loop: on a 2-core host the
	// open loop's queueing amplifies host-speed swings beyond any bound
	// (README.md), so its figures are per-layer only. Each round is
	// summarized on its own and the median over rounds reported: pooled,
	// the rounds repeat each heavy request five times, and the tail lands
	// on the largest of the rest, a single noisy sample.
	var rates, p50s, tails []float64
	var sum latencySummary
	for _, round := range sp.rounds {
		ok2xx := 0
		for _, r := range round.results {
			if r.err == nil {
				ok2xx++
			}
		}
		sum = summarize(round.latMS)
		rates = append(rates, float64(ok2xx)/round.wallS)
		p50s = append(p50s, sum.p50)
		tails = append(tails, sum.tail)
	}
	out.meta.RoundRates, out.meta.RoundP50s, out.meta.RoundTails = rates, p50s, tails
	out.attempted, out.failed = serveCount(sp), c.failures()
	out.meta.Ops, out.meta.TailPct, out.meta.TailBeyond, out.meta.Truncated = len(sp.p2.results), sum.tailPct, sum.beyond, sp.truncated
	out.meta.Requests = kindCounts(sp)
	if !cfg.trace {
		out.e2e = e2eMetrics(median(runs), median(rates), median(p50s), median(tails), out.attempted, out.failed)
		return out, nil
	}
	addGC(vals, gc0)
	vals["trace.overhead_frac"] = 0
	serveLayers(e.in, sp, vals)
	addSelfTimes(vals, tr)
	if out.meta.TraceFile, err = tr.write(filepath.Join(cfg.buildDir, "traces"), fmt.Sprintf("serve-seed%d.json", cfg.seed)); err != nil {
		return nil, err
	}
	out.layers = layerMetrics(vals)
	return out, nil
}

// serveCount returns the requests attempted in both phases.
func serveCount(sp *servePass) int {
	return len(sp.p1.results) + len(sp.p2.results)
}

// kindCounts tallies the requests of both phases by kind.
func kindCounts(sp *servePass) map[string]int {
	out := map[string]int{}
	for i, ph := range []phaseStats{sp.p1, sp.p2} {
		for _, r := range ph.results {
			out[fmt.Sprintf("p%d.%s", i+1, kindNames[r.req.kind])]++
		}
	}
	return out
}

// serveLayers derives the serving per-layer metrics of a traced pass:
// client-side splits of phase 1, /statz and /metricsz diffs across it,
// and the protocol fields of the response bodies of both phases.
func serveLayers(in *instance, sp *servePass, vals map[string]float64) {
	var hitMS, missMS, outsideMS, shardedMS, late []float64
	var cacheable, hits float64
	engines := map[string]float64{}
	var executed float64
	for _, r := range sp.p1.results {
		if r.err != nil {
			continue
		}
		lat := float64(r.doneAt.Sub(r.sendAt).Nanoseconds()) / 1e6
		switch r.cache {
		case "hit":
			hits++
			cacheable++
			hitMS = append(hitMS, lat)
		case "miss":
			cacheable++
			missMS = append(missMS, lat)
			outsideMS = append(outsideMS, lat-float64(r.wallNS)/1e6)
		}
	}
	late = append(late, sp.p1.lateMS...)

	var rounds, frames, maxBits, sharded, moves, refined float64
	var sampleNodes, subsetWork, recovered, maxComp, solves float64
	for _, ph := range []phaseStats{sp.p1, sp.p2} {
		for _, r := range ph.results {
			if r.err != nil || r.cache == "hit" {
				continue
			}
			for _, eng := range r.engines {
				engines[eng]++
				executed++
			}
			for _, run := range r.runs {
				if run.Engine == "sharded" {
					sharded++
					rounds += float64(run.Rounds)
					frames += float64(run.Frames)
					maxBits = math.Max(maxBits, float64(run.MaxFrameBits))
					shardedMS = append(shardedMS, float64(run.WallNS)/1e6)
				}
				if run.Refine != "" {
					refined++
					moves += float64(run.RefineMoves)
				}
				solves++
				for _, s := range run.SampleSizes {
					sampleNodes += float64(s)
				}
				subsetWork += math.Ldexp(1, run.MaxComponent)
				maxComp = math.Max(maxComp, float64(run.MaxComponent))
				if len(run.Candidates) > 0 {
					recovered += recoveredShare(run.Candidates[0].Members, in.pt.Size)
				}
			}
		}
	}
	p50 := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return percentile(s, 50)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals["server.hit_frac"] = ratio(hits, cacheable)
	vals["server.hit_p50_ms"] = p50(hitMS)
	vals["server.miss_p50_ms"] = p50(missMS)
	vals["server.outside_exec_p50_ms"] = p50(outsideMS)
	d := func(name string) float64 { return sp.hist1[name] - sp.hist0[name] }
	vals["server.exec_mean_ms"] = 1e3 * ratio(d("nearclique_job_exec_seconds_sum"), d("nearclique_job_exec_seconds_count"))
	vals["server.wait_mean_ms"] = 1e3 * ratio(d("nearclique_admission_wait_seconds_sum"), d("nearclique_admission_wait_seconds_count"))
	s0, s1 := sp.statz0, sp.statz1
	vals["server.fast_path_frac"] = ratio(float64(s1.FastPath-s0.FastPath), float64(s1.Accepted-s0.Accepted))
	vals["server.shed_frac"] = ratio(float64(s1.Rejected-s0.Rejected+s1.Refused-s0.Refused), float64(s1.Received-s0.Received))
	for _, eng := range []string{"seq", "frontier", "sharded", "shadow"} {
		vals["server.engine_mix."+eng] = ratio(engines[eng], executed)
	}
	vals["congest.rounds"] = ratio(rounds, sharded)
	vals["congest.frames"] = ratio(frames, sharded)
	vals["congest.max_frame_bits"] = maxBits
	vals["congest.exec_p50_ms"] = p50(shardedMS)
	vals["refine.moves"] = ratio(moves, refined)
	vals["core.sample_nodes"] = ratio(sampleNodes, solves)
	vals["core.max_component_max"] = maxComp
	vals["core.subset_work"] = ratio(subsetWork, solves)
	vals["quality.recovered_frac"] = ratio(recovered, solves)
	sort.Float64s(late)
	vals["loadgen.late_p99_ms"] = percentile(late, 99)
	ol := summarize(sp.p1.latMS)
	vals["open_loop.p50_ms"] = ol.p50
	vals["open_loop.tail_ms"] = ol.tail
}
