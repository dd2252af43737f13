package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
)

func entrySize(key string, body []byte) int64 {
	return int64(len(body)) + int64(len(key)) + cachedBodyOverhead
}

func TestResultCacheLRUEvictionByBytes(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	budget := 2 * entrySize("k0", body) // room for exactly two entries
	c := newResultCache(budget)

	c.put("k0", body)
	c.put("k1", body)
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 evicted prematurely")
	}
	// k0 is now most recent; inserting k2 must evict k1.
	c.put("k2", body)
	if _, ok := c.get("k1"); ok {
		t.Fatal("k1 survived past the byte budget")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing after eviction pass", k)
		}
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes != budget {
		t.Fatalf("stats: %+v", st)
	}
	// Lookups alone never count misses (shed requests must not skew the
	// ratio); only an executed solve records one.
	if st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	c.recordMiss()
	if st := c.stats(); st.Misses != 1 {
		t.Fatalf("recordMiss not counted: %+v", st)
	}
}

func TestResultCacheFirstBodyStaysCanonical(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put("k", []byte("first"))
	c.put("k", []byte("second")) // concurrent-duplicate miss: ignored
	got, ok := c.get("k")
	if !ok || string(got) != "first" {
		t.Fatalf("got %q, want the first stored body", got)
	}
}

func TestResultCacheRejectsOversizedAndDisabled(t *testing.T) {
	c := newResultCache(64)
	c.put("k", bytes.Repeat([]byte("x"), 1000))
	if _, ok := c.get("k"); ok {
		t.Fatal("an over-budget body was cached")
	}

	off := newResultCache(-1)
	off.put("k", []byte("v"))
	if _, ok := off.get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	off.recordMiss()
	if st := off.stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st)
	}
}

// resolveKey canonicalizes a request and builds its cache key against a
// fixed digest, failing the test on resolution errors.
func resolveKey(t *testing.T, req SolveRequest) string {
	t.Helper()
	p, err := req.resolve(Config{})
	if err != nil {
		t.Fatalf("resolve(%+v): %v", req, err)
	}
	return p.key("digest")
}

// TestCacheKeyParamOrderings: requests that spell the same run
// differently — explicit defaults vs omitted fields, equivalent refine
// spellings — must share one cache key, and any parameter that can change
// the response body must split it. (The httptest twin of this lives in
// server_test.go's TestCacheKeyCanonicalization; this one pins the key
// function itself, so a collision names the offending parameter.)
func TestCacheKeyParamOrderings(t *testing.T) {
	seed1 := int64(1)
	defaults := resolveKey(t, SolveRequest{Graph: "g"})
	sameRuns := []SolveRequest{
		{Graph: "g", Engine: "auto"},
		{Graph: "g", Epsilon: 0.25},
		{Graph: "g", ExpectedSample: 6},
		{Graph: "g", Seed: &seed1},
		{Graph: "g", Boost: 1},
		{Graph: "g", Engine: "auto", Epsilon: 0.25, ExpectedSample: 6, Seed: &seed1, Boost: 1},
		{Graph: "g", TimeoutMS: 5000}, // deadlines never change a completed body
	}
	for _, req := range sameRuns {
		if got := resolveKey(t, req); got != defaults {
			t.Errorf("request %+v keyed %q, want the default key %q", req, got, defaults)
		}
	}

	seed2 := int64(2)
	differentRuns := []SolveRequest{
		{Graph: "g", Engine: "sharded"},
		{Graph: "g", Epsilon: 0.3},
		{Graph: "g", ExpectedSample: 7},
		{Graph: "g", P: 0.01},
		{Graph: "g", Seed: &seed2},
		{Graph: "g", Boost: 2},
		{Graph: "g", MinSize: 10},
		{Graph: "g", MaxRounds: 100},
		{Graph: "g", Refine: "near"},
	}
	seen := map[string]string{defaults: "the default request"}
	for _, req := range differentRuns {
		key := resolveKey(t, req)
		if prev, dup := seen[key]; dup {
			t.Errorf("request %+v collides with %s on key %q", req, prev, key)
		}
		seen[key] = fmt.Sprintf("%+v", req)
	}
}

// TestCacheKeyRefineSpecCanonicalization: equivalent refine spellings
// share a key; different specs never do.
func TestCacheKeyRefineSpecCanonicalization(t *testing.T) {
	equivalent := [][2]string{
		{"quasi:0.60", "quasi:0.6"},
		{"near,moves=512,pool=4096", "near"}, // explicitly spelled defaults
		{"near:0.20", "near:0.2"},
		{"quasi:0.6,pool=4096,moves=99", "quasi:0.6,moves=99"},
	}
	for _, pair := range equivalent {
		a := resolveKey(t, SolveRequest{Graph: "g", Refine: pair[0]})
		b := resolveKey(t, SolveRequest{Graph: "g", Refine: pair[1]})
		if a != b {
			t.Errorf("equivalent refine specs %q and %q keyed %q vs %q", pair[0], pair[1], a, b)
		}
	}
	distinct := []string{"", "near", "near:0.2", "near:0.25", "quasi:0.6", "quasi:0.75", "near,moves=16"}
	seen := map[string]string{}
	for _, spec := range distinct {
		key := resolveKey(t, SolveRequest{Graph: "g", Refine: spec})
		if prev, dup := seen[key]; dup {
			t.Errorf("refine specs %q and %q share key %q", spec, prev, key)
		}
		seen[key] = spec
	}
}

// TestServeRefineCacheCanonicalizationEndToEnd proves the canonical keys
// through the full handler: a differently spelled but equivalent request
// is a byte-identical cache hit, a genuinely different spec is a miss.
func TestServeRefineCacheCanonicalizationEndToEnd(t *testing.T) {
	srv := New(Config{Concurrency: 2})
	defer srv.Close()
	if _, err := srv.LoadGraph("g", writeTestSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first, cache := post(t, ts.URL+"/v1/solve",
		`{"graph":"g","refine":"quasi:0.60,moves=512"}`)
	if status != 200 || cache != "miss" {
		t.Fatalf("first solve: status %d cache %q", status, cache)
	}
	// Equivalent spelling: canonical float, defaults omitted → hit.
	status, second, cache := post(t, ts.URL+"/v1/solve",
		`{"graph":"g","refine":"quasi:0.6"}`)
	if status != 200 || cache != "hit" {
		t.Fatalf("equivalent respelling: status %d cache %q, want a hit", status, cache)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit body differs from the miss that populated it")
	}
	// Same params, different spec → miss; no refine at all → miss.
	for _, body := range []string{
		`{"graph":"g","refine":"quasi:0.7"}`,
		`{"graph":"g"}`,
	} {
		if status, _, cache := post(t, ts.URL+"/v1/solve", body); status != 200 || cache != "miss" {
			t.Fatalf("request %s: status %d cache %q, want a fresh miss", body, status, cache)
		}
	}
	// And the refined fields actually ship in the served schema.
	if !bytes.Contains(first, []byte(`"refine":"quasi:0.6"`)) {
		t.Fatalf("response body lacks the canonical refine spec: %s", first)
	}
	if !bytes.Contains(first, []byte(`"refined_size"`)) {
		t.Fatalf("response body lacks refined_size: %s", first)
	}
}

func TestResultCacheManyEntriesStayWithinBudget(t *testing.T) {
	c := newResultCache(10_000)
	for i := 0; i < 500; i++ {
		c.put(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte("b"), 50))
	}
	st := c.stats()
	if st.Bytes > 10_000 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected a full, churning cache: %+v", st)
	}
}
