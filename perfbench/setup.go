package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nearclique/internal/expt"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
	"nearclique/internal/graphio"
)

// Instance sizes. solveScale is the n=10⁵ point behind BENCH_engine's
// find/planted-n100000; the other workloads share the n=2·10⁴ point.
var (
	solveScale = expt.ScalePoint{N: 100_000, Size: 1000, AvgDeg: 12}
	smallScale = expt.ScalePoint{N: 20_000, Size: 500, AvgDeg: 10}
)

// setupRuns is how many times a run builds its instance; setup_s is the
// median, and the last instance serves the timed phase.
const setupRuns = 5

// instance is one generated, snapshotted and reloaded workload graph.
// The planted near-clique is nodes 0..Size-1.
type instance struct {
	pt    expt.ScalePoint
	g     *graph.Graph // loaded from the snapshot, as the daemon would
	path  string       // the .ncsr snapshot
	close func() error
}

// Solve options shared by the solve, search and serve workloads: ε, the
// Corollary 2.3 expected sample 4N/Size and the guaranteed size Size/4.
func (in *instance) sample() float64 { return 4 * float64(in.pt.N) / float64(in.pt.Size) }
func (in *instance) minSize() int    { return in.pt.Size / 4 }

// plantedSeed is the generator seed of the planted half of every instance.
const plantedSeed = 1

// buildInstance generates the instance for seed, writes it as a .ncsr
// snapshot under dir and maps it back. Steps are recorded as spans under
// parent, and their times land in times when it is non-nil.
func buildInstance(pt expt.ScalePoint, seed int64, dir string, tr *tracer, parent int, times map[string]float64) (*instance, error) {
	t0 := time.Now()
	planted := expt.ScaleInstance(pt, plantedSeed)
	background := expt.ScaleInstance(pt, seed)
	t1 := time.Now()
	tr.add(parent, "gen.instance", "gen", -1, t0, t1)

	g := splice(planted, background)
	g.CSR()
	t2 := time.Now()
	tr.add(parent, "graph.splice_csr", "graph", -1, t1, t2)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("instance-%d.ncsr", pt.N))
	if err := graphio.WriteSnapshotFile(path, g); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	t3 := time.Now()
	tr.add(parent, "graphio.snapshot_write", "graphio", -1, t2, t3)

	loaded, closeFn, err := graphio.Load(path)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	t4 := time.Now()
	tr.add(parent, "graphio.snapshot_load", "graphio", -1, t3, t4)

	st, err := os.Stat(path)
	if err != nil {
		closeFn()
		return nil, err
	}
	if loaded.N() != pt.N || loaded.M() != g.M() {
		closeFn()
		return nil, fmt.Errorf("snapshot round trip: n=%d m=%d, want n=%d m=%d", loaded.N(), loaded.M(), pt.N, g.M())
	}
	if times != nil {
		times["gen.instance_s"] = t1.Sub(t0).Seconds()
		times["graph.csr_s"] = t2.Sub(t1).Seconds()
		times["graphio.snapshot_write_s"] = t3.Sub(t2).Seconds()
		times["graphio.snapshot_load_s"] = t4.Sub(t3).Seconds()
		times["graphio.snapshot_bytes"] = float64(st.Size())
	}
	return &instance{pt: pt, g: loaded, path: path, close: closeFn}, nil
}

// splice joins two draws of the planted-instance generator into one.
// From p it takes the planted set, relabelled to nodes 0..Size-1, and
// every edge that touches the planted set or a neighbour of it; from bg
// it takes the edges among the remaining nodes. Every pair of nodes is
// still an independent draw of the generator's distribution, so the
// result is an instance of the same family. Its planted neighbourhood,
// though, is the same for every workload seed: the sampling coins depend
// on (solver seed, node), so a solver seed meets the same planted
// component in every run and the heavy-tail seeds cost the same whatever
// the workload seed (README.md).
func splice(p, bg gen.Planted) *graph.Graph {
	n := p.Graph.N()
	label := make([]int, n)
	inD := make([]bool, n)
	for i, v := range p.D {
		label[v] = i
		inD[v] = true
	}
	// near: the planted set and its neighbours, whose edges all come from p.
	near := append([]bool(nil), inD...)
	for _, v := range p.D {
		for _, w := range p.Graph.Neighbors(v) {
			near[w] = true
		}
	}
	next := len(p.D)
	var far []int // labels of the other nodes, ascending
	for v := 0; v < n; v++ {
		if !inD[v] {
			label[v] = next
			if !near[v] {
				far = append(far, next)
			}
			next++
		}
	}
	b := graph.NewSparseBuilder(n)
	for u := 0; u < n; u++ {
		for _, w := range p.Graph.Neighbors(u) {
			if int(w) > u && (near[u] || near[w]) {
				b.AddEdge(label[u], label[w])
			}
		}
	}
	// bg's non-planted nodes, in index order, take the far labels.
	bgLabel := make([]int, n)
	inBG := make([]bool, n)
	for _, v := range bg.D {
		inBG[v] = true
	}
	k := 0
	for v := 0; v < n; v++ {
		bgLabel[v] = -1
		if !inBG[v] && k < len(far) {
			bgLabel[v] = far[k]
			k++
		}
	}
	for u := 0; u < n; u++ {
		for _, w := range bg.Graph.Neighbors(u) {
			if int(w) > u && bgLabel[u] >= 0 && bgLabel[w] >= 0 {
				b.AddEdge(bgLabel[u], bgLabel[w])
			}
		}
	}
	return b.Build()
}

// edgeListParse times the same graph through the text edge-list reader.
func edgeListParse(g *graph.Graph) (float64, error) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		return 0, err
	}
	t0 := time.Now()
	back, err := graphio.Read(&buf)
	if err != nil {
		return 0, err
	}
	s := since(t0)
	if back.M() != g.M() {
		return 0, fmt.Errorf("edge-list round trip: m=%d, want %d", back.M(), g.M())
	}
	return s, nil
}

// setupRepeated builds the instance setupRuns times with build (which may
// add workload set-up such as a server and its warm-up), returns the last
// result, and the per-run set-up times. Earlier results are released via
// release. With a tracer, only the last set-up is traced and its layer
// times land in times.
func setupRepeated[T any](tr *tracer, times map[string]float64, build func(tr *tracer, parent int, times map[string]float64) (T, error), release func(T)) (T, []float64, error) {
	var last T
	var runs []float64
	for i := 0; i < setupRuns; i++ {
		var t *tracer
		var tm map[string]float64
		if i == setupRuns-1 {
			t, tm = tr, times
		}
		parent := t.open(0, "setup", "", -1)
		t0 := time.Now()
		v, err := build(t, parent, tm)
		runs = append(runs, since(t0))
		t.end(parent)
		if err != nil {
			return last, runs, err
		}
		if i < setupRuns-1 {
			release(v)
		}
		last = v
	}
	return last, runs, nil
}
