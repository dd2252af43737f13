package server

// Observability-layer tests (PR 9): /metricsz exposition determinism and
// exact reconciliation against /statz, byte-identity of response bodies
// with metrics on vs off, the /statz latency section, request trace
// spans under the flight opt-in, and the batch wall_ns unification pin.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nearclique/internal/report"
)

// httpGet fetches a URL and returns status, body bytes, and headers.
func httpGet(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// parseExposition parses Prometheus-text series lines into a value map
// keyed by the full series name (with labels), skipping comments. Every
// non-comment line must parse — the format contract.
func parseExposition(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestMetricszReconcilesWithStatz drives mixed traffic (executed solves,
// cache hits, a batch) and then requires /metricsz and /statz to agree
// exactly — they read the same atomics, so any drift is a bug — and the
// exposition itself to be deterministic between quiescent scrapes and
// internally consistent (+Inf bucket == _count).
func TestMetricszReconcilesWithStatz(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 2, QueueDepth: 8, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ { // 3 executed solves
		if status, body, _ := post(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"graph":"g","engine":"seq","seed":%d}`, i)); status != http.StatusOK {
			t.Fatalf("solve %d: status %d body %s", i, status, body)
		}
	}
	for i := 0; i < 2; i++ { // 2 cache hits
		if status, _, cache := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"seq","seed":0}`); status != http.StatusOK || cache != "hit" {
			t.Fatalf("hit %d: status %d cache %q", i, status, cache)
		}
	}
	// 1 batch (2 items: 1 hit, 1 executed).
	if status, body, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","engine":"seq","seed":1},{"graph":"g","engine":"seq","seed":9}]}`); status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}

	var st report.ServerStats
	if status := get(t, ts.URL+"/statz", &st); status != http.StatusOK {
		t.Fatalf("statz status %d", status)
	}
	status, expo, hdr := httpGet(t, ts.URL+"/metricsz")
	if status != http.StatusOK {
		t.Fatalf("metricsz status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metricsz Content-Type %q", ct)
	}
	series := parseExposition(t, expo)

	// Counter bridges: the exposition republishes the exact /statz values.
	checks := map[string]float64{
		"nearclique_admission_received_total":                float64(st.Received),
		"nearclique_admission_accepted_total":                float64(st.Accepted),
		"nearclique_admission_rejected_total":                float64(st.Rejected),
		"nearclique_admission_refused_total":                 float64(st.Refused),
		"nearclique_admission_fastpath_total":                float64(st.FastPath),
		"nearclique_cache_hits_total":                        float64(st.Cache.Hits),
		"nearclique_cache_misses_total":                      float64(st.Cache.Misses),
		"nearclique_cache_evictions_total":                   float64(st.Cache.Evictions),
		"nearclique_cache_entries":                           float64(st.Cache.Entries),
		"nearclique_cache_bytes":                             float64(st.Cache.Bytes),
		"nearclique_graphs_loaded":                           float64(len(st.Graphs)),
		"nearclique_job_exec_seconds_count":                  float64(st.JobsDone),
		`nearclique_request_seconds_count{endpoint="solve"}`: 5, // 3 executed + 2 hits
		`nearclique_request_seconds_count{endpoint="batch"}`: 1,
	}
	for name, want := range checks {
		got, ok := series[name]
		if !ok {
			t.Errorf("exposition missing series %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, statz says %v", name, got, want)
		}
	}
	// Histogram internal consistency: the +Inf cumulative bucket equals
	// the count, for every histogram family present.
	for name, v := range series {
		if !strings.Contains(name, `le="+Inf"`) {
			continue
		}
		countName := strings.Replace(name, "_bucket", "_count", 1)
		countName = strings.Replace(countName, `{le="+Inf"}`, "", 1)
		countName = strings.Replace(countName, `,le="+Inf"`, "", 1)
		if c, ok := series[countName]; !ok || c != v {
			t.Errorf("histogram %s: +Inf bucket %v != count %v (ok=%v)", name, v, c, ok)
		}
	}
	// JobsDone covers the executed work: 3 solves + 1 batch job.
	if st.JobsDone != 4 {
		t.Errorf("jobs_done = %d, want 4 (3 executed solves + 1 batch job)", st.JobsDone)
	}

	// Determinism: two scrapes with no traffic in between are
	// byte-identical (gauges over quiescent state included).
	_, expo2, _ := httpGet(t, ts.URL+"/metricsz")
	if !bytes.Equal(expo, expo2) {
		t.Errorf("quiescent /metricsz scrapes differ:\n%s\n---\n%s", expo, expo2)
	}
}

// TestStatzLatencySection: after traffic, /statz carries per-endpoint
// percentiles from the same histograms, ordered and sane.
func TestStatzLatencySection(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if status, body, _ := post(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"graph":"g","engine":"seq","seed":%d}`, i)); status != http.StatusOK {
			t.Fatalf("solve: status %d body %s", status, body)
		}
	}
	var st report.ServerStats
	get(t, ts.URL+"/statz", &st)
	if len(st.Latency) == 0 {
		t.Fatal("statz latency section empty after traffic")
	}
	byEndpoint := map[string]report.EndpointLatency{}
	for _, l := range st.Latency {
		byEndpoint[l.Endpoint] = l
	}
	solve, ok := byEndpoint["solve"]
	if !ok {
		t.Fatalf("no solve row in latency section: %+v", st.Latency)
	}
	if solve.Count != 4 {
		t.Errorf("solve latency count = %d, want 4", solve.Count)
	}
	if solve.P50MS <= 0 || solve.P50MS > solve.P99MS || solve.P99MS > solve.P999MS {
		t.Errorf("percentiles not ordered: p50=%v p99=%v p999=%v", solve.P50MS, solve.P99MS, solve.P999MS)
	}
	exec, ok := byEndpoint["job_exec"]
	if !ok || exec.Count != 4 {
		t.Errorf("job_exec latency row missing or wrong count: %+v", byEndpoint)
	}
	// The Retry-After satellite: mean_job_ms is the histogram's mean, so
	// the latency row and the top-level aggregate must agree exactly.
	if st.MeanJobMS != exec.MeanMS {
		t.Errorf("mean_job_ms %v != job_exec mean %v (one source of truth)", st.MeanJobMS, exec.MeanMS)
	}
}

// TestBodiesByteIdenticalMetricsOnOff is the purely-observational
// contract at the serving surface: identical requests against a
// metrics-on and a metrics-off server produce byte-identical bodies
// (wall_ns excepted — it is wall time — so we compare with it stripped),
// and /metricsz 404s when disabled.
func TestBodiesByteIdenticalMetricsOnOff(t *testing.T) {
	path := writeTestSnapshot(t)
	bodies := make(map[bool][]string)
	for _, disabled := range []bool{false, true} {
		s := New(Config{Concurrency: 2, CacheBytes: 1 << 20, DisableMetrics: disabled})
		ts := httptest.NewServer(s.Handler())
		if _, err := s.LoadGraph("g", path); err != nil {
			t.Fatal(err)
		}
		for _, req := range []string{
			`{"graph":"g","engine":"seq","seed":5}`,
			`{"graph":"g","engine":"frontier","seed":5,"refine":"near"}`,
			`{"graph":"g","engine":"seq","seed":5}`, // cache hit replay
		} {
			status, body, _ := post(t, ts.URL+"/v1/solve", req)
			if status != http.StatusOK {
				t.Fatalf("disabled=%v %s: status %d body %s", disabled, req, status, body)
			}
			bodies[disabled] = append(bodies[disabled], stripWall(t, body))
		}
		status, _, _ := httpGet(t, ts.URL+"/metricsz")
		if disabled && status != http.StatusNotFound {
			t.Errorf("metrics disabled but /metricsz answered %d", status)
		}
		if !disabled && status != http.StatusOK {
			t.Errorf("/metricsz status %d", status)
		}
		ts.Close()
		s.Close()
	}
	for i := range bodies[false] {
		if bodies[false][i] != bodies[true][i] {
			t.Errorf("response %d differs metrics-on vs off:\non:  %s\noff: %s", i, bodies[false][i], bodies[true][i])
		}
	}
}

// stripWall zeroes the one legitimately nondeterministic field so body
// comparison pins everything else byte-for-byte.
func stripWall(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "wall_ns")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestTraceSpansUnderFlightOptIn: a flight-opted solve answers with the
// X-Nearclique-Trace-Id header and an in-body trace whose spans cover
// the full pipeline; an un-opted request gets neither, and traced
// requests keep bypassing the cache in both directions.
func TestTraceSpansUnderFlightOptIn(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	// Un-opted request: no trace header, no trace section.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":"g","engine":"seq","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Nearclique-Trace-Id"); h != "" {
		t.Errorf("un-opted request got trace header %q", h)
	}
	if bytes.Contains(plain, []byte(`"trace"`)) {
		t.Errorf("un-opted body carries a trace section: %s", plain)
	}

	// Opted request: header + spans. Run twice — traced requests must
	// never be served from (or populate) the cache.
	var lastID string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"graph":"g","engine":"sharded","seed":3,"flight":64}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced solve %d: status %d body %s", i, resp.StatusCode, body)
		}
		if cache := resp.Header.Get("X-Nearclique-Cache"); cache != "miss" {
			t.Errorf("traced solve %d: cache header %q, want miss", i, cache)
		}
		id := resp.Header.Get("X-Nearclique-Trace-Id")
		if id == "" {
			t.Fatal("traced response missing X-Nearclique-Trace-Id")
		}
		if id == lastID {
			t.Errorf("trace id %q reused across requests", id)
		}
		lastID = id

		var run report.Run
		if err := json.Unmarshal(body, &run); err != nil {
			t.Fatal(err)
		}
		if run.Trace == nil {
			t.Fatal("traced response body has no trace section")
		}
		if run.Trace.TraceID != id {
			t.Errorf("body trace_id %q != header %q", run.Trace.TraceID, id)
		}
		names := map[string]bool{}
		prevStart := int64(-1)
		for _, sp := range run.Trace.Spans {
			names[sp.Name] = true
			if sp.StartNS < prevStart {
				t.Errorf("spans not start-ordered: %+v", run.Trace.Spans)
			}
			prevStart = sp.StartNS
			if sp.DurNS < 0 {
				t.Errorf("negative span duration: %+v", sp)
			}
		}
		for _, want := range []string{"admission-wait", "cache-lookup", "solve", "commit"} {
			if !names[want] {
				t.Errorf("trace missing %q span; got %v", want, run.Trace.Spans)
			}
		}
		// The sharded engine emits phase events, so the trace must carry
		// at least one rebased solve/<phase> sub-span.
		phases := 0
		for name := range names {
			if strings.HasPrefix(name, "solve/") {
				phases++
			}
		}
		if phases == 0 {
			t.Errorf("trace has no solve/<phase> sub-spans: %v", run.Trace.Spans)
		}
	}
	if hits := s.cache.stats().Hits; hits != 0 {
		t.Errorf("traced requests hit the cache %d times", hits)
	}
}

// TestBatchWallNSUnified pins the satellite bugfix: every /v1/batch line
// carries wall_ns on one clock — executed lines their solve wall, error
// lines the service time actually burned (not the old 0), cached lines
// the frozen first-miss value byte-for-byte.
func TestBatchWallNSUnified(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	status, body, _ := post(t, ts.URL+"/v1/batch", `{"requests":[
		{"graph":"g","engine":"seq","seed":11},
		{"graph":"nosuch","engine":"seq","seed":1},
		{"graph":"g","engine":"seq","seed":11}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %s", len(lines), body)
	}
	var runs [3]report.Run
	for i, line := range lines {
		if err := json.Unmarshal(line, &runs[i]); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if runs[0].Error != "" || runs[0].WallNS <= 0 {
		t.Errorf("executed line: error=%q wall_ns=%d, want clean with wall_ns>0", runs[0].Error, runs[0].WallNS)
	}
	if runs[1].Error == "" {
		t.Fatalf("unknown-graph line carries no error: %s", lines[1])
	}
	if runs[1].WallNS <= 0 {
		t.Errorf("error line wall_ns = %d, want > 0 (the pinned bug: error lines used to ship 0)", runs[1].WallNS)
	}
	if !bytes.Equal(lines[0], lines[2]) {
		t.Errorf("cached replay not byte-identical to first miss:\n%s\n%s", lines[0], lines[2])
	}
	if runs[2].WallNS != runs[0].WallNS {
		t.Errorf("cached wall_ns %d != frozen first-miss %d", runs[2].WallNS, runs[0].WallNS)
	}
}

// TestBatchTraceIDs: a flight-opted batch answers with a batch-level
// trace id header, and each opted line embeds a derived per-item trace.
func TestBatchTraceIDs(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"requests":[
		{"graph":"g","engine":"seq","seed":1,"flight":32},
		{"graph":"g","engine":"seq","seed":2},
		{"graph":"g","engine":"seq","seed":3,"flight":32}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	batchID := resp.Header.Get("X-Nearclique-Trace-Id")
	if batchID == "" {
		t.Fatal("flight-opted batch missing X-Nearclique-Trace-Id header")
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, wantTrace := range []bool{true, false, true} {
		var run report.Run
		if err := json.Unmarshal(lines[i], &run); err != nil {
			t.Fatal(err)
		}
		if !wantTrace {
			if run.Trace != nil {
				t.Errorf("un-opted item %d carries a trace", i)
			}
			continue
		}
		if run.Trace == nil {
			t.Fatalf("opted item %d has no trace", i)
		}
		want := fmt.Sprintf("%s.%d", batchID, i)
		if run.Trace.TraceID != want {
			t.Errorf("item %d trace_id %q, want %q", i, run.Trace.TraceID, want)
		}
	}

	// A traced batch shed at admission still carries its id, like a shed
	// /v1/solve or /v1/count: the header is set before admission.
	s.Drain()
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"graph":"g","engine":"seq","seed":4,"flight":32}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("traced batch on a drained server: status %d, want 503", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Nearclique-Trace-Id"); id == "" || id == batchID {
		t.Errorf("shed traced batch trace id %q, want a fresh non-empty id", id)
	}
}

// TestConcurrencyDoesNotChangeBodies is the serving analog of the
// GOMAXPROCS axis: servers at Concurrency 1 and 4 — with metrics and
// tracing active — produce byte-identical bodies (wall stripped) for the
// same requests across engines.
func TestConcurrencyDoesNotChangeBodies(t *testing.T) {
	path := writeTestSnapshot(t)
	requests := []string{
		`{"graph":"g","engine":"seq","seed":2}`,
		`{"graph":"g","engine":"sharded","seed":2}`,
		`{"graph":"g","engine":"frontier","seed":2,"refine":"near"}`,
	}
	out := map[int][]string{}
	for _, conc := range []int{1, 4} {
		s := New(Config{Concurrency: conc, CacheBytes: -1})
		ts := httptest.NewServer(s.Handler())
		if _, err := s.LoadGraph("g", path); err != nil {
			t.Fatal(err)
		}
		for _, req := range requests {
			status, body, _ := post(t, ts.URL+"/v1/solve", req)
			if status != http.StatusOK {
				t.Fatalf("conc=%d %s: status %d body %s", conc, req, status, body)
			}
			out[conc] = append(out[conc], stripWall(t, body))
		}
		ts.Close()
		s.Close()
	}
	for i := range requests {
		if out[1][i] != out[4][i] {
			t.Errorf("request %d body differs across concurrency 1 vs 4:\n%s\n%s", i, out[1][i], out[4][i])
		}
	}
}
