// Command perfbench is the repository benchmark. One invocation runs one
// workload against the library or the nearcliqued HTTP API, checks every
// output, and prints its result as one JSON object on the last line of
// standard output:
//
//	perfbench --workload solve --seed 1 --seconds 10 --trace 0
//
// Workloads: solve (Solver.Solve), search (Solver.Search), count
// (Solver.Count) and serve (server.Server over loopback HTTP). With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// per-layer metrics derived from in-memory spans, which the run also
// writes as JSON under .bench_build/traces/. README.md maps every metric
// to its layer.
//
// The process exits 1 when an output check fails and 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the run-metadata line printed just before the result.
type meta struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       int            `json:"trace"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Ops         int            `json:"ops"`
	Requests    map[string]int `json:"requests,omitempty"`
	TailPct     float64        `json:"tail_percentile"`
	TailBeyond  int            `json:"tail_beyond"`
	SetupRuns   []float64      `json:"setup_runs_s"`
	Truncated   bool           `json:"truncated,omitempty"`
	RoundRates  []float64      `json:"round_rates_per_s,omitempty"`
	RoundP50s   []float64      `json:"round_p50s_ms,omitempty"`
	RoundTails  []float64      `json:"round_tails_ms,omitempty"`
	Digest      string         `json:"estimate_digest,omitempty"`
	CheckErrors []string       `json:"check_errors,omitempty"`
	TraceFile   string         `json:"trace_file,omitempty"`
}

// outcome is what a workload returns to main.
type outcome struct {
	attempted, failed int
	checks            *checker
	e2e               map[string]metric // trace 0
	layers            map[string]metric // trace 1
	meta              meta
}

// workloadFunc runs one workload.
type workloadFunc func(cfg runConfig) (*outcome, error)

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	buildDir string // build output, snapshots and traces, inside the checkout
}

var workloads = map[string]workloadFunc{
	"solve":  runSolve,
	"search": runSearch,
	"count":  runCount,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: solve, search, count or serve")
	seed := fs.Int64("seed", 1, "workload seed: determines the instance's background graph, the hot-seed picks and the arrival times")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload solve|search|count|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		buildDir: ".bench_build",
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}

	m := out.meta
	m.Workload, m.Seed, m.Seconds, m.Trace = cfg.workload, cfg.seed, cfg.seconds, *trace
	m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()
	m.CheckErrors = out.checks.sample()
	metaLine, err := json.Marshal(map[string]meta{"meta": m})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(metaLine))

	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
	}
	res := result{
		Correct:   out.checks.failures() == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, e := range m.CheckErrors {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
		}
		return 1
	}
	return 0
}

// commit reports the VCS revision the binary was built from, or
// "unknown" outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// resetPeakRSS runs a GC, returns the freed heap to the OS and restarts
// the kernel's peak-RSS mark, so peakRSSMB covers only what follows: the
// timed phase, not the generator's set-up garbage.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Linux only; where it fails the peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size since resetPeakRSS in MB.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// e2eMetrics assembles the end-to-end metric set every workload reports.
func e2eMetrics(setupS, throughput, p50ms, tailms float64, attempted, failed int) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_per_s": {throughput, "1/s"},
		"p50_ms":           {p50ms, "ms"},
		"tail_ms":          {tailms, "ms"},
		"success_frac":     {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// layerNames is every per-layer metric with its unit. Each traced run
// reports all of them; a layer a workload does not exercise reads 0.
var layerNames = map[string]string{
	"gen.instance_s":             "s",
	"graph.csr_s":                "s",
	"graphio.snapshot_write_s":   "s",
	"graphio.snapshot_load_s":    "s",
	"graphio.snapshot_bytes":     "bytes",
	"graphio.edgelist_parse_s":   "s",
	"core.explore_s":             "s",
	"core.decide_s":              "s",
	"core.sample_nodes":          "count",
	"core.max_component_max":     "count",
	"core.subset_work":           "count",
	"core.allocs_per_op":         "count",
	"core.alloc_bytes_per_op":    "bytes",
	"quality.recovered_frac":     "ratio",
	"search.traverse_s":          "s",
	"search.probe_s":             "s",
	"search.allocs_per_op":       "count",
	"frontier.waves":             "count",
	"frontier.edges_examined":    "count",
	"frontier.wave_s":            "s",
	"shadow.build_s":             "s",
	"shadow.sample_s":            "s",
	"shadow.leaves":              "count",
	"shadow.hit_frac":            "ratio",
	"shadow.samples_per_s":       "1/s",
	"shadow.allocs_per_sample":   "count",
	"server.hit_frac":            "ratio",
	"server.hit_p50_ms":          "ms",
	"server.miss_p50_ms":         "ms",
	"server.outside_exec_p50_ms": "ms",
	"server.exec_mean_ms":        "ms",
	"server.wait_mean_ms":        "ms",
	"server.fast_path_frac":      "ratio",
	"server.shed_frac":           "ratio",
	"server.engine_mix.seq":      "ratio",
	"server.engine_mix.frontier": "ratio",
	"server.engine_mix.sharded":  "ratio",
	"server.engine_mix.shadow":   "ratio",
	"congest.rounds":             "count",
	"congest.frames":             "count",
	"congest.max_frame_bits":     "bits",
	"congest.exec_p50_ms":        "ms",
	"refine.moves":               "count",
	"loadgen.late_p99_ms":        "ms",
	"open_loop.p50_ms":           "ms",
	"open_loop.tail_ms":          "ms",
	"runtime.gc_cycles":          "count",
	"runtime.gc_pause_ms":        "ms",
	"trace.overhead_frac":        "ratio",
	"self.gen_s":                 "s",
	"self.graph_s":               "s",
	"self.graphio_s":             "s",
	"self.nearclique_s":          "s",
	"self.core_s":                "s",
	"self.frontier_s":            "s",
	"self.shadow_s":              "s",
	"self.congest_s":             "s",
	"self.server_s":              "s",
	"self.unattributed_s":        "s",
}

// layerMetrics fills every per-layer name, defaulting absent ones to 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerNames))
	for name, unit := range layerNames {
		out[name] = metric{vals[name], unit}
	}
	for name := range vals {
		if _, ok := layerNames[name]; !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
	return out
}

// gcStats is a runtime GC snapshot for before/after diffs.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// addGC records the GC activity since before into vals.
func addGC(vals map[string]float64, before gcStats) {
	after := readGC()
	vals["runtime.gc_cycles"] = float64(after.cycles - before.cycles)
	vals["runtime.gc_pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
