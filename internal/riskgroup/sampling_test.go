package riskgroup

import (
	"context"
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// TestSamplerBlockEdges runs the sampler at round counts on both sides of
// the 64-round block boundary, for several worker counts, with and without
// shrink: each (Rounds, Workers) pair must reproduce exactly, detection must
// be monotone in Rounds, and every RG must be sound (minimal with shrink).
func TestSamplerBlockEdges(t *testing.T) {
	g := fatTreeDeployment(t, 4)
	for _, shrink := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3} {
			var prev []RG
			for _, rounds := range []int{1, 63, 64, 65, 129} {
				name := fmt.Sprintf("shrink=%v/workers=%d/rounds=%d", shrink, workers, rounds)
				s := Sampler{Rounds: rounds, Bias: 0.3, Shrink: shrink, Seed: 4, Workers: workers}
				fam, err := s.Sample(g)
				if err != nil {
					t.Fatal(err)
				}
				again, err := s.Sample(g)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fam, again) {
					t.Errorf("%s: same (Seed, Workers) produced different families", name)
				}
				for _, rg := range fam {
					if shrink && !IsMinimalRG(g, rg) || !IsRG(g, rg) {
						t.Errorf("%s: %v is not a sound sample", name, Labels(g, rg))
					}
				}
				for _, rg := range prev {
					if !containsOrAbsorbed(fam, rg) {
						t.Errorf("%s: RG %v found with fewer rounds was lost", name, Labels(g, rg))
					}
				}
				if rounds >= 64 && len(fam) == 0 {
					t.Errorf("%s: no RGs sampled", name)
				}
				prev = fam
			}
		}
	}
}

// containsOrAbsorbed reports whether fam holds rg or a subset of it (a
// bigger shrink run may absorb an RG into a smaller one it also found).
func containsOrAbsorbed(fam []RG, rg RG) bool {
	for _, s := range fam {
		if refSubsetOf(s, rg) {
			return true
		}
	}
	return false
}

// TestSampleBlocksPrefixStable pins the partial-block contract at the
// worker level: a worker's first n rounds yield exactly the RGs, in the
// same order, whatever number of rounds follows them.
func TestSampleBlocksPrefixStable(t *testing.T) {
	g := fatTreeDeployment(t, 4)
	probs := make([]float64, g.NumBasics())
	for i := range probs {
		probs[i] = 0.3
	}
	for _, shrink := range []bool{false, true} {
		full := sampleBlocks(context.Background(), g, probs, 9, 200, shrink)
		if len(full) == 0 {
			t.Fatal("no RGs sampled")
		}
		for _, n := range []int{1, 63, 64, 65, 129} {
			part := sampleBlocks(context.Background(), g, probs, 9, n, shrink)
			if len(part) > len(full) || !reflect.DeepEqual(part, full[:len(part)]) {
				t.Errorf("shrink=%v: first %d rounds found %v, the 200-round stream starts %v", shrink, n, part, full[:min(len(part), len(full))])
			}
		}
	}
}

// TestDrawLanesBernoulli checks the lane coin statistically: over 10⁵
// lanes each p must land within 4σ of its expectation, and p = 0 and p = 1
// must be exact.
func TestDrawLanesBernoulli(t *testing.T) {
	const words = 1563 // ≥ 10⁵ lanes
	const n = 64 * words
	rng := rand.New(rand.NewSource(17))
	count := func(p float64) int {
		c := 0
		for i := 0; i < words; i++ {
			c += mbits.OnesCount64(drawLanes(rng, p))
		}
		return c
	}
	for _, p := range []float64{0.03, 1.0 / 3, 0.5, 0.97} {
		got := float64(count(p))
		sigma := math.Sqrt(n * p * (1 - p))
		if math.Abs(got-n*p) > 4*sigma {
			t.Errorf("p=%v: %v of %d lanes failed, want %v ± %.0f", p, got, n, n*p, 4*sigma)
		}
	}
	if got := count(0); got != 0 {
		t.Errorf("p=0: %d lanes failed", got)
	}
	if got := count(1); got != n {
		t.Errorf("p=1: %d of %d lanes failed", got, n)
	}
	// The extremes of float64 still terminate and stay exact in practice.
	if got := count(math.SmallestNonzeroFloat64); got != 0 {
		t.Errorf("p=2^-1074: %d lanes failed", got)
	}
	if got := count(math.Nextafter(1, 0)); got != n {
		t.Errorf("p=1-2^-53: %d of %d lanes failed", got, n)
	}
}
