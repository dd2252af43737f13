// Command nearcliqued is the near-clique serving daemon: a long-running
// HTTP/JSON service over the Solver API (DESIGN.md §9). It keeps a
// registry of named graphs — `.ncsr` snapshots are memory-mapped
// zero-copy, so any number of concurrent requests share one arena — runs
// solves through a bounded admission queue sized for the machine, and
// serves repeated queries from a deterministic result cache whose hits
// are byte-identical to the misses that populated them.
//
// Usage:
//
//	nearcliqued -addr :8372 -load web=web.ncsr [-load er=er.edges ...]
//
// Endpoints:
//
//	GET    /healthz            liveness (503 while draining)
//	GET    /statz              queue/cache/latency/per-graph counters (internal/report.ServerStats)
//	GET    /metricsz           Prometheus-text exposition (disable with -no-metrics)
//	GET    /v1/graphs          list registered graphs
//	POST   /v1/graphs          {"name":..., "path":...} — hot-load a graph
//	DELETE /v1/graphs/{name}   unload (in-flight solves finish first)
//	POST   /v1/solve           {"graph":..., "engine":..., "epsilon":..., "seed":..., ...}
//	POST   /v1/batch           {"requests":[...]} — NDJSON stream of results
//	POST   /v1/count           {"graph":..., "k":..., "samples":..., ...} — Turán-shadow clique counts
//
// Example session:
//
//	gengraph -family planted -n 100000 -size 300 -format snap > web.ncsr
//	nearcliqued -load web=web.ncsr &
//	curl -s localhost:8372/v1/solve -d '{"graph":"web","epsilon":0.25,"seed":7}'
//
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503, new work is
// refused with 503, queued and running jobs finish (bounded by
// -drain-grace), then the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nearclique/internal/buildinfo"
	"nearclique/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the daemon and blocks until the listener fails or a signal
// arrives on sig (nil installs the real SIGINT/SIGTERM handler; tests
// inject their own channel). The bound address is announced on stderr as
// "listening on ADDR" so -addr :0 is testable.
func run(args []string, stdout, stderr io.Writer, sig chan os.Signal) int {
	fs := flag.NewFlagSet("nearcliqued", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var loads []string
	var (
		addr        = fs.String("addr", ":8372", "listen address")
		concurrency = fs.Int("concurrency", 0, "solve workers (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "admission queue depth beyond running jobs (429 past it)")
		cacheMB     = fs.Int64("cache-mb", 32, "result-cache budget in MiB (0 disables)")
		timeout     = fs.Duration("timeout", time.Minute, "default per-request deadline incl. queue wait (0 = none; requests may set timeout_ms)")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a drain may take before connections are force-closed")
		costPath    = fs.String("costmodel", "", "cost-model JSON file: seeded at startup if present, saved back on exit (empty = in-memory only)")
		cheap       = fs.Duration("cheap", 10*time.Millisecond, "predicted-wall-time threshold for the admission fast path (0 disables)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (empty = off; keep it off the service port)")
		noMetrics   = fs.Bool("no-metrics", false, "disable the observability layer (/metricsz, latency histograms)")
		version     = fs.Bool("version", false, "print version and exit")
	)
	fs.Func("load", "register a graph at startup as name=path (repeatable; .ncsr is memory-mapped)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("nearcliqued"))
		return 0
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // explicit off; Config treats 0 as "default"
	}
	queueDepth := *queue
	if queueDepth == 0 {
		queueDepth = -1 // explicit no-queue mode; Config treats 0 as "default"
	}
	cheapNS := int64(*cheap)
	if *cheap == 0 {
		cheapNS = -1 // explicit off; Config treats 0 as "default"
	}
	srv := server.New(server.Config{
		Concurrency:    *concurrency,
		QueueDepth:     queueDepth,
		CacheBytes:     cacheBytes,
		DefaultTimeout: *timeout,
		CheapSolveNS:   cheapNS,
		Version:        buildinfo.String("nearcliqued"),
		DisableMetrics: *noMetrics,
	})
	defer srv.Close()

	// pprof gets its own listener, never the service one: profiles are an
	// operator surface (unauthenticated and expensive to render), so they
	// bind to a separate — typically loopback-only — address.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "nearcliqued:", err)
			return 1
		}
		fmt.Fprintf(stderr, "nearcliqued: pprof listening on %s\n", pln.Addr())
		ps := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go ps.Serve(pln)
		defer ps.Close()
	}

	// Seed the admission cost model from a committed artifact so a fresh
	// daemon prices requests from the first one; it keeps training from
	// live traffic either way and writes the refreshed fit back on exit.
	if *costPath != "" {
		switch blob, err := os.ReadFile(*costPath); {
		case err == nil:
			if err := json.Unmarshal(blob, srv.CostModel()); err != nil {
				fmt.Fprintf(stderr, "nearcliqued: %s: %v\n", *costPath, err)
				return 1
			}
			fmt.Fprintf(stderr, "nearcliqued: cost model seeded from %s (%d samples)\n",
				*costPath, srv.CostModel().Samples())
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(stderr, "nearcliqued: cost model starting cold (%s not found)\n", *costPath)
		default:
			fmt.Fprintln(stderr, "nearcliqued:", err)
			return 1
		}
	}
	saveCostModel := func() {
		if *costPath == "" {
			return
		}
		blob, err := json.MarshalIndent(srv.CostModel(), "", "  ")
		if err == nil {
			err = os.WriteFile(*costPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "nearcliqued: saving cost model: %v\n", err)
			return
		}
		fmt.Fprintf(stderr, "nearcliqued: cost model saved to %s (%d samples)\n",
			*costPath, srv.CostModel().Samples())
	}
	// Deferred, not called at the end of the drain path: the fit trained
	// from live traffic must survive every exit — clean drain, drain
	// timeout (force-close), and listener failure alike. Registered after
	// srv is built but before srv.Close runs (defers are LIFO), so the
	// model is still live when it is snapshotted.
	defer saveCostModel()

	for _, spec := range loads {
		name, path, _ := strings.Cut(spec, "=")
		st, err := srv.LoadGraph(name, path)
		if err != nil {
			fmt.Fprintln(stderr, "nearcliqued:", err)
			return 1
		}
		fmt.Fprintf(stderr, "nearcliqued: loaded %q from %s (n=%d m=%d digest=%s)\n",
			st.Name, st.Path, st.N, st.M, st.GraphDigest)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "nearcliqued:", err)
		return 1
	}
	fmt.Fprintf(stderr, "nearcliqued: listening on %s\n", ln.Addr())

	// Header/body read timeouts keep slow-loris clients from pinning
	// connections; writes are not globally bounded (batch streams are
	// legitimately long) — the batch writer carries its own per-line
	// write deadline instead.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if sig == nil {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
	}

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "nearcliqued:", err)
			return 1
		}
		return 0
	case got := <-sig:
		fmt.Fprintf(stderr, "nearcliqued: %v: draining (grace %s)...\n", got, *drainGrace)
		// Order matters: refuse new admissions first (healthz goes 503,
		// submits 503), then let the HTTP server wait out in-flight
		// requests — which are exactly the admitted jobs — then reap the
		// idle workers and release the snapshot mappings.
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "nearcliqued: drain exceeded %s, force-closing: %v\n", *drainGrace, err)
			hs.Close()
			return 1
		}
		srv.Drain()
		fmt.Fprintln(stderr, "nearcliqued: drained, exiting")
		return 0
	}
}
