package core

import (
	"testing"

	"nearclique/internal/gen"
)

// TestVersionsCapped: λ above HardMaxVersions is rejected before any
// per-version state is allocated, on the engines that bypass the
// Solver's eager validation too. An uncapped λ of 10⁹ allocated 8 GB in
// the sample-size slice alone and killed the process with a runtime
// out-of-memory error no recover can catch.
func TestVersionsCapped(t *testing.T) {
	base := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 1}
	ok := base
	ok.Versions = HardMaxVersions
	if _, err := ok.validated(50); err != nil {
		t.Fatalf("Versions at the cap rejected: %v", err)
	}
	over := base
	over.Versions = 1_000_000_000
	if _, err := over.validated(50); err == nil {
		t.Fatal("Versions 1e9 accepted")
	}
	g := gen.ErdosRenyi(50, 0.2, 1)
	if _, err := FindSequential(g, over); err == nil {
		t.Fatal("FindSequential ran with Versions 1e9")
	}
	if _, err := Find(g, over); err == nil {
		t.Fatal("Find ran with Versions 1e9")
	}
}
