package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {10, 1}, {0, 1}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		wantBeyond int
	}{
		{1000, 99, 10},
		{2000, 99, 20},
		{160, 93, 11},
		{120, 91, 10},
		{36, 72, 10},
		{20, 50, 10},
		{5, 50, 2}, // too few samples: median fallback
	} {
		p, beyond := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.wantBeyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", tc.n, p, beyond, tc.p, tc.wantBeyond)
		}
	}
	// The rule itself: the chosen percentile leaves ≥10 beyond and the
	// next whole percentile would not.
	for n := 20; n <= 3000; n++ {
		p, beyond := tailPercentile(n)
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d beyond", n, p, beyond)
		}
		if p < 99 && n-rankOf(n, p+1) >= minBeyond {
			t.Fatalf("n=%d: p%v is not the highest percentile with %d beyond", n, p, minBeyond)
		}
	}
}

func TestSummarizeUsesRawSamples(t *testing.T) {
	var ms []float64
	for i := 1000; i >= 1; i-- {
		ms = append(ms, float64(i))
	}
	s := summarize(ms)
	if s.p50 != 500 || s.tail != 990 || s.tailPct != 99 || s.beyond != 10 || s.n != 1000 {
		t.Fatalf("summarize = %+v, want p50 500, p99 990 with 10 beyond of 1000", s)
	}
}

func TestScriptIsDeterministicWithExactMix(t *testing.T) {
	build := func(seed int64) ([]request, []time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		var ctr counters
		reqs := script(240, rng, &ctr)
		return reqs, schedule(240, 12*time.Second, rng)
	}
	a, atA := build(7)
	b, atB := build(7)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(atA, atB) {
		t.Fatal("the same seed produced different request scripts or schedules")
	}
	c, atC := build(8)
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(atA, atC) {
		t.Fatal("different seeds produced the same hot picks or arrival times")
	}
	for i := range a {
		if a[i].kind != c[i].kind || (a[i].kind != kindHot && !reflect.DeepEqual(a[i], c[i])) {
			t.Fatalf("request %d differs across seeds beyond its hot pick: %+v vs %+v", i, a[i], c[i])
		}
	}

	counts := map[reqKind]int{}
	var fresh []int64
	for _, r := range a {
		counts[r.kind]++
		if r.kind == kindFresh {
			fresh = append(fresh, r.seeds[0])
			if r.refine != (r.seeds[0]%10 == 0) {
				t.Errorf("fresh seed %d: refine=%v, want every tenth", r.seeds[0], r.refine)
			}
		}
		if r.kind == kindBatch && len(r.seeds) != 4 {
			t.Errorf("batch of %d seeds, want 4", len(r.seeds))
		}
		if r.kind == kindHot && (r.seeds[0] < hotSeedBase || r.seeds[0] >= hotSeedBase+hotSeeds) {
			t.Errorf("hot seed %d outside the hot set", r.seeds[0])
		}
	}
	want := map[reqKind]int{kindFresh: 144, kindHot: 60, kindCount: 24, kindSharded: 7, kindBatch: 5}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("mix counts %v, want %v", counts, want)
	}
	// Fresh seeds are 1..F in script order whatever the workload seed.
	for i, s := range fresh {
		if s != int64(i+1) {
			t.Fatalf("fresh seed #%d is %d, want %d", i, s, i+1)
		}
	}
}

func TestMixCountsSumToN(t *testing.T) {
	for n := 1; n <= 500; n++ {
		total := 0
		for _, c := range mixCounts(n) {
			total += c
		}
		if total != n {
			t.Fatalf("mixCounts(%d) sums to %d", n, total)
		}
	}
}

func TestScheduleKeepsOneArrivalPerSlot(t *testing.T) {
	d := 12 * time.Second
	at := schedule(240, d, rand.New(rand.NewSource(3)))
	if !sort.SliceIsSorted(at, func(i, j int) bool { return at[i] < at[j] }) {
		t.Fatal("arrivals are not in time order")
	}
	slot := d / 240
	for i, a := range at {
		if a < time.Duration(i)*slot || a >= time.Duration(i+1)*slot {
			t.Fatalf("arrival %d at %v outside its slot [%v, %v)", i, a, time.Duration(i)*slot, time.Duration(i+1)*slot)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	root := tr.addNS(0, "timed", "", -1, 0, 100)
	op := tr.addNS(root, "op", "nearclique", 1, 10, 90)
	tr.addNS(op, "a", "core", 1, 20, 50)
	tr.addNS(op, "b", "core", 1, 40, 60) // overlaps a: the union counts once
	got := tr.selfTimes()
	want := map[string]float64{"unattributed": 20e-9, "nearclique": 40e-9, "core": 50e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}
