package faultgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLaneEvalKofN lays all eight assignments of three events across lanes
// 0..7 (lane l fails event i iff bit i of l is set): a 2-of-3 gate must
// fire exactly in the lanes with at least two set bits.
func TestLaneEvalKofN(t *testing.T) {
	b := NewBuilder()
	x := b.Basic("x")
	y := b.Basic("y")
	z := b.Basic("z")
	b.SetTop(b.GateK("top", 2, x, y, z))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := make([]uint64, g.Len())
	w[x], w[y], w[z] = 0b10101010, 0b11001100, 0b11110000
	if got, want := g.NewLaneEval().Eval(w), uint64(0b11101000); got != want {
		t.Errorf("2-of-3 lanes = %08b, want %08b", got, want)
	}
}

// fuzzGraph builds a DAG from shape bytes: a basic-event count, a gate
// count, then per gate its kind, fan-in, children and K. Missing bytes read
// as zero, so every input yields a valid graph.
func fuzzGraph(shape []byte) (*Graph, error) {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		v := int(shape[0])
		shape = shape[1:]
		return v
	}
	b := NewBuilder()
	var ids []NodeID
	nb := 1 + next()%12
	for i := 0; i < nb; i++ {
		ids = append(ids, b.Basic(fmt.Sprintf("b%d", i)))
	}
	ng := 1 + next()%16
	for i := 0; i < ng; i++ {
		kind := next() % 3
		nkids := 1 + next()%min(6, len(ids))
		used := make(map[NodeID]bool, nkids)
		kids := make([]NodeID, 0, nkids)
		for len(kids) < nkids {
			c := ids[next()%len(ids)]
			for used[c] { // probe to the next unused node
				c = ids[(int(c)+1)%len(ids)]
			}
			used[c] = true
			kids = append(kids, c)
		}
		label := fmt.Sprintf("g%d", i)
		switch kind {
		case 0:
			ids = append(ids, b.Gate(label, AND, kids...))
		case 1:
			ids = append(ids, b.Gate(label, OR, kids...))
		default:
			ids = append(ids, b.GateK(label, 1+next()%nkids, kids...))
		}
	}
	b.SetTop(ids[len(ids)-1])
	return b.Build()
}

// FuzzLaneEvalMatchesEvaluate checks the 64-lane evaluator against the
// scalar Graph.Evaluate: on a DAG built from shape, with 64 random lane
// assignments drawn from seed, every event's lane l must equal its state
// under Evaluate on lane l's basic events. The committed corpus under
// testdata/fuzz replays on every plain go test run.
func FuzzLaneEvalMatchesEvaluate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		g, err := fuzzGraph(shape)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		x := make([]uint64, g.Len())
		for _, id := range g.BasicEvents() {
			// Mix sparse, fair and dense lanes so gates see both outcomes.
			switch r.Intn(3) {
			case 0:
				x[id] = r.Uint64() & r.Uint64()
			case 1:
				x[id] = r.Uint64()
			default:
				x[id] = r.Uint64() | r.Uint64()
			}
		}
		top := g.NewLaneEval().Eval(x)
		if top != x[g.Top()] {
			t.Fatalf("Eval returned %x, top word holds %x", top, x[g.Top()])
		}
		a := g.NewAssignment()
		for l := 0; l < 64; l++ {
			for _, id := range g.BasicEvents() {
				a[id] = x[id]>>l&1 != 0
			}
			g.Evaluate(a)
			for _, id := range g.TopoOrder() {
				if got := x[id]>>l&1 != 0; got != a[id] {
					t.Fatalf("lane %d, event %q: lane eval %v, Evaluate %v", l, g.Node(id).Label, got, a[id])
				}
			}
		}
	})
}
