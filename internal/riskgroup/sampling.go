package riskgroup

import (
	"context"
	"encoding/binary"
	"fmt"
	"indaas/internal/telemetry"
	"math"
	mbits "math/bits"
	"math/rand"
	"runtime"
	"sync"

	"indaas/internal/faultgraph"
)

// Sampler implements the failure sampling algorithm of §4.1.2: each round
// assigns random failures to basic events (fair coin flips by default),
// propagates them bottom-up, and, when the top event fails, records the
// failed basic events as an RG.
//
// The algorithm runs in time linear in the graph size per round, is
// non-deterministic (seeded here for reproducibility), and cannot guarantee
// its RGs are minimal. With Shrink enabled each failing sample is greedily
// reduced to an irreducible — hence minimal — RG before aggregation, which
// is how "% of minimal RGs detected" (Fig. 7) is measured.
//
// Rounds run 64 at a time, one bit per round in a word per event
// (faultgraph.LaneEval), and are partitioned across Workers goroutines, each
// with its own generator and scratch state, so sampling scales with cores
// while the detected family stays a deterministic function of
// (Seed, Workers) on any machine.
type Sampler struct {
	// Rounds is the number of sampling rounds (paper: 10³–10⁷).
	Rounds int
	// Bias is the per-event failure probability of the coin flip.
	// 0 means the default fair coin (0.5).
	Bias float64
	// UseEventProbs flips each basic event with its own failure probability
	// instead of Bias (ablation; requires probabilities on all events).
	UseEventProbs bool
	// Shrink greedily minimizes each failing sample.
	Shrink bool
	// Seed seeds the random generators. Seed==0 means the fixed default
	// seed 1 — the zero value samples reproducibly, it does not randomize.
	// Worker w (0-based) draws from its own generator seeded Seed+w; note
	// that sweeping nearby seeds with Workers>1 therefore reuses worker
	// streams across runs (run Seed and Seed+1 share Workers−1 generator
	// seeds), so use well-separated seeds when runs must be statistically
	// independent.
	Seed int64
	// Workers is the number of concurrent sampling goroutines. 0 (or any
	// negative value) means runtime.GOMAXPROCS(0) — fastest, but the
	// detected family then depends on the host's CPU count; fix Workers
	// explicitly for output that reproduces across machines.
	Workers int
}

// Sample runs the sampler on g and returns the deduplicated family of
// detected RGs, sorted by size then lexicographically. With Shrink the
// family is additionally minimized (every member verified irreducible).
func (s Sampler) Sample(g *faultgraph.Graph) ([]RG, error) {
	return s.SampleContext(context.Background(), g)
}

// SampleContext is Sample under a context. Every worker goroutine polls the
// context once per sampleCheckBlocks blocks: on cancellation all workers
// exit promptly (typically within a millisecond of sampling work), their
// partial families are discarded, and the call returns ctx.Err() with a nil
// family. Cancellation observed only after every round completed still
// reports ctx.Err(), matching the usual Go convention that a canceled call
// never returns a result.
func (s Sampler) SampleContext(ctx context.Context, g *faultgraph.Graph) ([]RG, error) {
	if s.Rounds <= 0 {
		return nil, fmt.Errorf("riskgroup: Sampler.Rounds must be positive, got %d", s.Rounds)
	}
	bias := s.Bias
	if bias == 0 {
		bias = 0.5
	}
	if bias < 0 || bias > 1 {
		return nil, fmt.Errorf("riskgroup: Sampler.Bias %v out of [0,1]", bias)
	}
	basics := g.BasicEvents()
	probs := make([]float64, len(basics))
	for i, id := range basics {
		if s.UseEventProbs {
			n := g.Node(id)
			if !n.HasProb() {
				return nil, fmt.Errorf("riskgroup: UseEventProbs set but event %q has no probability", n.Label)
			}
			probs[i] = n.Prob
		} else {
			probs[i] = bias
		}
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.Rounds {
		workers = s.Rounds
	}

	tr := telemetry.FromContext(ctx)
	defer tr.Start("sampling")()

	// Worker w samples ceil((Rounds−w)/workers) rounds from generator
	// Seed+w: the rounds a striped n≡w (mod workers) split would assign it.
	// Growing Rounds with (Seed, Workers) fixed only extends each worker's
	// stream, so detected families grow monotonically with the round count,
	// which Fig. 7's curves rely on.
	results := make([][]RG, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			share := (s.Rounds - w + workers - 1) / workers
			results[w] = sampleBlocks(ctx, g, probs, seed+int64(w), share, s.Shrink)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge in worker order, deduplicating across workers; the final
	// canonical sort makes the outcome independent of scheduling anyway.
	seen := make(map[string]struct{})
	var out []RG
	for _, part := range results {
		for _, rg := range part {
			k := rg.key()
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, rg)
		}
	}
	if s.Shrink {
		// Graph-aware minimize: bitsets over basic ranks, not raw node IDs.
		out = minimizeFamily(graphIndexer{g: g}, out)
	}
	sortFamily(out)
	tr.Add("rounds_sampled", int64(s.Rounds))
	tr.Add("rgs_found", int64(len(out)))
	return out, nil
}

// drawLanes returns 64 independent Bernoulli(p) lanes. Lane l compares a
// uniform U = 0.u₁u₂… against p's binary expansion digit by digit, one
// random word serving all lanes per digit: at a 1 digit the tied lanes with
// uᵢ = 0 fall below p (fail), at a 0 digit those with uᵢ = 1 rise above it
// (healthy), and lanes still tied after p's last 1 digit have U ≥ p. That
// is exact for every float64 p, and the draw stops once no lane is tied, so
// it averages a handful of words; the fair coin is a single word.
func drawLanes(rng *rand.Rand, p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	frac, exp := math.Frexp(p) // p = frac·2^exp, frac ∈ [½, 1), exp ≤ 0; 0 has no digits
	digits := uint64(frac*(1<<53)) << 11
	tied := ^uint64(0)
	for ; exp < 0 && tied != 0; exp++ { // leading zero digits
		tied &^= rng.Uint64()
	}
	var fail uint64
	for ; digits != 0 && tied != 0; digits <<= 1 {
		r := rng.Uint64()
		if digits>>63 == 1 {
			fail |= tied &^ r
			tied &= r
		} else {
			tied &^= r
		}
	}
	return fail
}

// sampleCheckBlocks is how many 64-round blocks a worker runs between
// context polls: 256 rounds take well under a millisecond, so cancellation
// lands promptly without the context's mutex showing up in profiles.
const sampleCheckBlocks = 4

// sampleBlocks is one worker's loop over 64-round blocks: draw every basic
// event's word, evaluate all lanes at once, shrink the failing lanes if
// asked, and record each failing lane's RG. A short last block draws like a
// full one and masks its unused lanes, and shuffles run in ascending lane
// order, so a worker's first n rounds never depend on how many follow. On
// cancellation it returns nil; the caller discards the partial family.
//
// Shrink removes each lane's failed events in its own random order (a fixed
// order would collapse samples onto a few minimal RGs and cripple Fig. 7's
// detection): step j clears every lane's j-th candidate, re-evaluates once,
// and restores the candidates whose lane's top event stopped failing.
func sampleBlocks(ctx context.Context, g *faultgraph.Graph, probs []float64, seed int64, rounds int, shrink bool) []RG {
	rng := rand.New(rand.NewSource(seed))
	ev := g.NewLaneEval()
	basics := g.BasicEvents()
	nb := len(basics)
	x := make([]uint64, g.Len())
	var order []faultgraph.NodeID // lane l's removal order at [l·nb, l·nb+cnt[l])
	var cnt [64]int
	if shrink {
		order = make([]faultgraph.NodeID, 64*nb)
	}
	rg := make(RG, 0, nb)
	keybuf := make([]byte, 0, 4*nb)
	seen := make(map[string]struct{})
	var out []RG
	for block := 0; block*64 < rounds; block++ {
		if block%sampleCheckBlocks == 0 && ctx.Err() != nil {
			return nil
		}
		for i, id := range basics {
			x[id] = drawLanes(rng, probs[i])
		}
		failing := ev.Eval(x)
		if n := rounds - block*64; n < 64 {
			failing &= 1<<n - 1
		}
		steps := 0
		for f := failing; shrink && f != 0; f &= f - 1 {
			l := mbits.TrailingZeros64(f)
			o := order[l*nb : l*nb]
			for _, id := range basics {
				if x[id]>>l&1 != 0 {
					o = append(o, id)
				}
			}
			rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
			cnt[l], steps = len(o), max(steps, len(o))
		}
		for j, active := 0, failing; j < steps; j++ {
			for f := active; f != 0; f &= f - 1 {
				if l := mbits.TrailingZeros64(f); j < cnt[l] {
					x[order[l*nb+j]] &^= 1 << l
				} else {
					active &^= 1 << l // lane l is done
				}
			}
			for need := active &^ ev.Eval(x); need != 0; need &= need - 1 {
				l := mbits.TrailingZeros64(need)
				x[order[l*nb+j]] |= 1 << l
			}
		}
		for ; failing != 0; failing &= failing - 1 {
			l := mbits.TrailingZeros64(failing)
			rg, keybuf = rg[:0], keybuf[:0]
			for _, id := range basics { // ascending IDs: rg comes out sorted
				if x[id]>>l&1 != 0 {
					rg = append(rg, id)
					keybuf = binary.LittleEndian.AppendUint32(keybuf, uint32(id))
				}
			}
			if _, ok := seen[string(keybuf)]; ok { // no allocation: key lookup only
				continue
			}
			seen[string(keybuf)] = struct{}{}
			out = append(out, append(RG(nil), rg...))
		}
	}
	return out
}

// DetectionRate reports what fraction of the reference minimal RGs appear in
// the detected family (Fig. 7's y-axis). Both families should be families of
// minimal RGs (use Shrink when sampling). Nil or empty families are fine:
// an empty reference counts as fully detected, an empty detected family
// scores zero without allocating.
func DetectionRate(reference, detected []RG) float64 {
	if len(reference) == 0 {
		return 1
	}
	if len(detected) == 0 {
		return 0
	}
	idx := make(map[string]struct{}, len(detected))
	for _, rg := range detected {
		idx[rg.key()] = struct{}{}
	}
	hit := 0
	for _, rg := range reference {
		if _, ok := idx[rg.key()]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(reference))
}
