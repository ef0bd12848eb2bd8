package faultgraph

// LaneEval evaluates 64 assignments at once: each event holds a uint64 whose
// bit l is its failure state in lane l, and a gate is word operations over
// its children — AND is &, OR is |, K-of-N an "at least j failed" word DP.
// Lane l always equals Graph.Evaluate on lane l's basic events. Gates sit in
// a flat children-before-parents array with a CSR child list, so a pass is
// one tight loop. A LaneEval holds K-of-N scratch: one per goroutine.
type LaneEval struct {
	top   NodeID
	gates []laneGate
	kids  []int32  // concatenated child IDs, indexed by laneGate.lo/hi
	at    []uint64 // K-of-N scratch: at[j] = lanes with > j failed children
}

type laneGate struct {
	id, k, lo, hi int32
	op            Gate // AND, OR, or KofN with 1 < K < N
}

// NewLaneEval flattens g's gates for lane evaluation.
func (g *Graph) NewLaneEval() *LaneEval {
	e := &LaneEval{top: g.top}
	for _, id := range g.topo {
		n := &g.nodes[id]
		if n.Gate == Basic {
			continue
		}
		op := KofN
		switch n.K {
		case 1:
			op = OR
		case len(n.Children):
			op = AND
		}
		if n.K > len(e.at) {
			e.at = make([]uint64, n.K)
		}
		lo := int32(len(e.kids))
		for _, c := range n.Children {
			e.kids = append(e.kids, int32(c))
		}
		e.gates = append(e.gates, laneGate{id: int32(id), k: int32(n.K), lo: lo, hi: int32(len(e.kids)), op: op})
	}
	return e
}

// Eval recomputes every gate word of x (indexed by NodeID, one entry per
// event of the graph) from its basic-event words, bottom-up, and returns
// the top event's word: the lanes whose top event fails.
func (e *LaneEval) Eval(x []uint64) uint64 {
	for _, gt := range e.gates {
		kids := e.kids[gt.lo:gt.hi]
		var v uint64
		switch gt.op {
		case OR:
			for _, c := range kids {
				v |= x[c]
			}
		case AND:
			v = ^uint64(0)
			for _, c := range kids {
				v &= x[c]
			}
		default:
			at := e.at[:gt.k]
			clear(at)
			for i, c := range kids {
				w := x[c]
				for j := min(i, len(at)-1); j > 0; j-- {
					at[j] |= at[j-1] & w
				}
				at[0] |= w
			}
			v = at[len(at)-1]
		}
		x[gt.id] = v
	}
	return x[e.top]
}
