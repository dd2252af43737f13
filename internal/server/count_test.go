package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nearclique/internal/report"
)

// resolveCountKey canonicalizes a count request and builds its cache key
// against a fixed digest, failing the test on resolution errors.
func resolveCountKey(t *testing.T, req CountRequest) string {
	t.Helper()
	p, err := req.resolve(Config{})
	if err != nil {
		t.Fatalf("resolve(%+v): %v", req, err)
	}
	return p.key("digest")
}

// TestCountCacheKeyParamOrderings is the counting twin of
// TestCacheKeyParamOrderings: equivalent spellings share one key, any
// parameter that can change the body splits it, and the count family can
// never alias a solve entry on the same digest.
func TestCountCacheKeyParamOrderings(t *testing.T) {
	seed1 := int64(1)
	defaults := resolveCountKey(t, CountRequest{Graph: "g"})
	sameRuns := []CountRequest{
		{Graph: "g", K: 4},
		{Graph: "g", Epsilon: 0.25},
		{Graph: "g", Epsilon: 2.5e-1}, // same value, different spelling
		{Graph: "g", Samples: 4096},
		{Graph: "g", Confidence: 0.99},
		{Graph: "g", Confidence: 0.990},
		{Graph: "g", Seed: &seed1},
		{Graph: "g", K: 4, Epsilon: 0.25, Samples: 4096, Confidence: 0.99, Seed: &seed1},
		{Graph: "g", TimeoutMS: 5000}, // deadlines never change a completed body
	}
	for _, req := range sameRuns {
		if got := resolveCountKey(t, req); got != defaults {
			t.Errorf("request %+v keyed %q, want the default key %q", req, got, defaults)
		}
	}

	seed2 := int64(2)
	differentRuns := []CountRequest{
		{Graph: "g", K: 5},
		{Graph: "g", Epsilon: 0.3},
		{Graph: "g", Samples: 8192},
		{Graph: "g", Confidence: 0.95},
		{Graph: "g", Seed: &seed2},
	}
	seen := map[string]string{defaults: "the default count request"}
	for _, req := range differentRuns {
		key := resolveCountKey(t, req)
		if prev, dup := seen[key]; dup {
			t.Errorf("request %+v collides with %s on key %q", req, prev, key)
		}
		seen[key] = fmt.Sprintf("%+v", req)
	}

	// Family separation: a count key on a digest can never equal any
	// solve key on that digest — the "|count" tag sits where the solve
	// key's "|eng=" tag does.
	solveDefault := resolveKey(t, SolveRequest{Graph: "g"})
	if defaults == solveDefault {
		t.Fatalf("count and solve default keys collide: %q", defaults)
	}
	if !strings.Contains(defaults, "|count|") {
		t.Fatalf("count key %q missing the family tag", defaults)
	}
}

// TestCountFloatCanonicalization pins the canonical float formatting the
// count key shares with the solve key: every spelling of one value keys
// identically ('g', shortest round-trip), and nearby distinct values
// never merge.
func TestCountFloatCanonicalization(t *testing.T) {
	base := resolveCountKey(t, CountRequest{Graph: "g", Epsilon: 0.1})
	for _, eps := range []float64{0.1, 0.10, 1e-1, 0.1000} {
		if got := resolveCountKey(t, CountRequest{Graph: "g", Epsilon: eps}); got != base {
			t.Errorf("epsilon %v keyed %q, want %q", eps, got, base)
		}
	}
	if got := resolveCountKey(t, CountRequest{Graph: "g", Epsilon: 0.1000001}); got == base {
		t.Errorf("epsilon 0.1000001 merged with 0.1 on key %q", base)
	}
}

// TestCountEndToEnd is the /v1/count acceptance flow: load a snapshot,
// count with a miss, repeat byte-identically from cache, hit through a
// differently spelled but equivalent body, and verify the admission,
// cache, and latency surfaces all saw the traffic — metrics parity with
// /v1/solve.
func TestCountEndToEnd(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 2, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path)); status != http.StatusCreated {
		t.Fatalf("load: status %d body %s", status, body)
	}

	req := `{"graph":"g","k":4,"epsilon":0.25,"samples":512,"seed":7}`
	s1, b1, c1 := post(t, ts.URL+"/v1/count", req)
	if s1 != http.StatusOK || c1 != "miss" {
		t.Fatalf("first count: status %d cache %q body %s", s1, c1, b1)
	}
	var run report.CountRun
	if err := json.Unmarshal(b1, &run); err != nil {
		t.Fatal(err)
	}
	if run.Engine != "shadow" || run.N != 300 || run.K != 4 || run.Samples != 512 || run.Error != "" {
		t.Fatalf("count record malformed: %+v", run)
	}
	if run.Cliques < 0 || run.NearCliques < run.Cliques || run.WallNS <= 0 {
		t.Fatalf("count estimates malformed: %+v", run)
	}

	// Byte-identical repeat from cache.
	s2, b2, c2 := post(t, ts.URL+"/v1/count", req)
	if s2 != http.StatusOK || c2 != "hit" {
		t.Fatalf("repeat count: status %d cache %q", s2, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached count body differs from the executed one")
	}

	// Equivalent spelling — reordered fields, exponent-notation float,
	// explicit defaults — hits the same entry.
	respelled := `{"seed":7,"samples":512,"epsilon":2.5e-1,"k":4,"graph":"g","confidence":0.990}`
	s3, b3, c3 := post(t, ts.URL+"/v1/count", respelled)
	if s3 != http.StatusOK || c3 != "hit" {
		t.Fatalf("respelled count: status %d cache %q body %s", s3, c3, b3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("respelled count body differs from the cached one")
	}

	// A genuinely different parameter misses.
	if status, _, cache := post(t, ts.URL+"/v1/count", `{"graph":"g","k":3,"samples":512,"seed":7}`); status != http.StatusOK || cache != "miss" {
		t.Fatalf("k=3 count: status %d cache %q", status, cache)
	}

	// Parity surfaces: the admission ledger balances, /statz reports
	// count latency, /metricsz carries the count endpoint label.
	st := s.Stats()
	if st.Received != st.Accepted+st.Rejected+st.Refused {
		t.Fatalf("admission ledger unbalanced: %+v", st)
	}
	if st.Received < 2 {
		t.Fatalf("admission never saw the executed counts: %+v", st)
	}
	var sawCount bool
	for _, l := range st.Latency {
		if l.Endpoint == "count" && l.Count >= 2 {
			sawCount = true
		}
	}
	if !sawCount {
		t.Fatalf("statz latency section missing count endpoint: %+v", st.Latency)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), `endpoint="count"`) {
		t.Fatal("metricsz missing the count endpoint label")
	}
}

// TestCountValidation: malformed count requests fail before admission
// with the right statuses, and invalid parameters can never populate the
// cache.
func TestCountValidation(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path)); status != http.StatusCreated {
		t.Fatalf("load: status %d body %s", status, body)
	}

	cases := []struct {
		body   string
		status int
	}{
		{`{"k":4}`, http.StatusBadRequest},                         // graph required
		{`{"graph":"nope"}`, http.StatusNotFound},                  // unknown graph
		{`{"graph":"g","k":1}`, http.StatusBadRequest},             // k below 2
		{`{"graph":"g","k":99}`, http.StatusBadRequest},            // k above MaxCliqueSize
		{`{"graph":"g","samples":-1}`, http.StatusBadRequest},      // negative samples
		{`{"graph":"g","confidence":1.5}`, http.StatusBadRequest},  // confidence outside (0,1)
		{`{"graph":"g","epsilon":0.7}`, http.StatusBadRequest},     // ε outside (0, 0.5)
		{`{"graph":"g","timeout_ms":-1}`, http.StatusBadRequest},   // negative timeout
		{`{"graph":"g","flight":-1}`, http.StatusBadRequest},       // negative flight
		{`{"graph":"g","engine":"shadow"}`, http.StatusBadRequest}, // unknown field
		{`{"graph":"g"} {"graph":"g"}`, http.StatusBadRequest},     // trailing data
	}
	for _, tc := range cases {
		if status, body, _ := post(t, ts.URL+"/v1/count", tc.body); status != tc.status {
			t.Errorf("count %s: status %d body %s, want %d", tc.body, status, body, tc.status)
		}
	}
	if st := s.cache.stats(); st.Entries != 0 {
		t.Fatalf("invalid requests populated the cache: %+v", st)
	}
}

// TestCountTraceBypassesCache: a flight-traced count carries the trace
// header and per-phase spans, executes every time (never a hit), and its
// traced body never poisons the cache for untraced repeats.
func TestCountTraceBypassesCache(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path)); status != http.StatusCreated {
		t.Fatalf("load: status %d body %s", status, body)
	}

	req := `{"graph":"g","k":3,"samples":256,"flight":16}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var run report.CountRun
		err = json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("X-Nearclique-Trace-Id") == "" {
			t.Fatal("traced count missing the trace id header")
		}
		if got := resp.Header.Get("X-Nearclique-Cache"); got != "miss" {
			t.Fatalf("traced count round %d served %q, want miss", i, got)
		}
		if run.Flight == nil || run.Trace == nil {
			t.Fatalf("traced count round %d missing flight/trace sections: %+v", i, run)
		}
		spans := map[string]bool{}
		for _, sp := range run.Trace.Spans {
			spans[sp.Name] = true
		}
		for _, want := range []string{"cache-lookup", "admission-wait", "count", "count/shadow-build", "count/shadow-sample", "commit"} {
			if !spans[want] {
				t.Errorf("traced count round %d missing span %q (have %v)", i, want, run.Trace.Spans)
			}
		}
	}

	// The untraced twin still misses (nothing was cached by the traced
	// runs), then hits its own entry.
	untraced := `{"graph":"g","k":3,"samples":256}`
	if _, _, cache := post(t, ts.URL+"/v1/count", untraced); cache != "miss" {
		t.Fatalf("first untraced count after traced runs served %q, want miss", cache)
	}
	if _, _, cache := post(t, ts.URL+"/v1/count", untraced); cache != "hit" {
		t.Fatalf("repeat untraced count served %q, want hit", cache)
	}
}

// TestCountDrainRefuses: a draining server sheds count admissions with
// 503 exactly like solve admissions.
func TestCountDrainRefuses(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path)); status != http.StatusCreated {
		t.Fatalf("load: status %d body %s", status, body)
	}
	s.StartDrain()
	if status, body, _ := post(t, ts.URL+"/v1/count", `{"graph":"g","samples":64}`); status != http.StatusServiceUnavailable {
		t.Fatalf("count while draining: status %d body %s, want 503", status, body)
	}
}
