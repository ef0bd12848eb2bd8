package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestPackRoundTrip checks that Unpack restores exactly the packed report:
// every field, NaN probabilities, shared labels across RGs, and nil versus
// empty slices at each level (%#v tells them apart). The JSON encodings
// must match byte for byte too.
func TestPackRoundTrip(t *testing.T) {
	withEdges := fixtureReport()
	withEdges.Audits = append(withEdges.Audits,
		DeploymentAudit{Deployment: "no-rgs", Sources: []string{"s4"}},
		DeploymentAudit{Deployment: "empty-rgs", RGs: []RGEntry{}},
		DeploymentAudit{Deployment: "odd-rgs", RGs: []RGEntry{
			{Components: nil, Size: 0},
			{Components: []string{}, Size: 0},
			{Components: []string{"Core1", "ToR1"}, Size: 2, Prob: 0.5, Importance: 1},
		}},
	)
	for _, r := range []*Report{fixtureReport(), withEdges, {Title: "nil audits"}, {Audits: []DeploymentAudit{}}} {
		got := Pack(r).Unpack()
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *r); g != w {
			t.Errorf("round trip changed the report:\n got %s\nwant %s", g, w)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Errorf("round trip changed the JSON:\n got %s\nwant %s", gj, wj)
		}
	}
}

// TestUnpackReturnsFreshReports: callers may modify the title, audits and
// RG components Unpack returns without affecting the packed report or other
// unpacked copies.
func TestUnpackReturnsFreshReports(t *testing.T) {
	p := Pack(fixtureReport())
	a := p.Unpack()
	a.Title = "changed"
	a.Audits[0].RGs[0].Components[0] = "changed"
	b := p.Unpack()
	if b.Title != "golden" || b.Audits[0].RGs[0].Components[0] != "ToR1" {
		t.Fatalf("a modified unpacked copy leaked into the packed report: %+v", b.Audits[0].RGs[0])
	}
}
