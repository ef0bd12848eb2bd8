package faultgraph

import (
	"reflect"
	"testing"
)

// diamond builds a small shared-dependency graph: two servers behind a
// shared ToR plus private cores, AND at the top.
func diamond(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	ids := map[string]NodeID{}
	ids["tor"] = b.Basic("tor")
	ids["c1"] = b.Basic("c1")
	ids["c2"] = b.Basic("c2")
	s1 := b.Gate("s1", OR, ids["tor"], ids["c1"])
	s2 := b.Gate("s2", OR, ids["tor"], ids["c2"])
	b.SetTop(b.Gate("top", AND, s1, s2))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func TestBasicRankTable(t *testing.T) {
	g, ids := diamond(t)
	if g.NumBasics() != 3 {
		t.Fatalf("NumBasics = %d, want 3", g.NumBasics())
	}
	want := g.BasicEvents()
	for r := 0; r < g.NumBasics(); r++ {
		id := g.BasicAt(r)
		if id != want[r] {
			t.Errorf("BasicAt(%d) = %d, want %d", r, id, want[r])
		}
		if g.BasicRank(id) != r {
			t.Errorf("BasicRank(%d) = %d, want %d", id, g.BasicRank(id), r)
		}
	}
	top, _ := g.Lookup("top")
	if g.BasicRank(top) != -1 {
		t.Error("gate event has a basic rank")
	}
	// Ranks follow ascending ID order.
	if !reflect.DeepEqual(want, []NodeID{ids["tor"], ids["c1"], ids["c2"]}) {
		t.Errorf("BasicEvents = %v", want)
	}
}

func TestEvaluateBasicRanks(t *testing.T) {
	g, ids := diamond(t)
	words := make([]uint64, 1)
	set := func(id NodeID) { words[0] |= 1 << uint(g.BasicRank(id)) }
	if g.EvaluateBasicRanks(words) {
		t.Error("empty failure set failed the top event")
	}
	set(ids["tor"])
	if !g.EvaluateBasicRanks(words) {
		t.Error("{tor} should fail the top event")
	}
	words[0] = 0
	set(ids["c1"])
	if g.EvaluateBasicRanks(words) {
		t.Error("{c1} alone should not fail the top event")
	}
	set(ids["c2"])
	if !g.EvaluateBasicRanks(words) {
		t.Error("{c1,c2} should fail the top event")
	}
}

func TestAssignmentPoolReturnsCleanAssignments(t *testing.T) {
	g, ids := diamond(t)
	a := g.AcquireAssignment()
	a[ids["tor"]] = true
	if !g.Evaluate(a) {
		t.Fatal("tor failure should fire the top")
	}
	g.ReleaseAssignment(a)
	b := g.AcquireAssignment()
	for i, v := range b {
		if v {
			t.Fatalf("pooled assignment dirty at %d", i)
		}
	}
	g.ReleaseAssignment(b)
}
