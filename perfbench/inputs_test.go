package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/deps"
)

// stream renders the first stretch of a workload's generated inputs — the
// bootstrap records, priming requests and timed request stream — as bytes.
func stream(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := func(tag string, body []byte) { fmt.Fprintf(&buf, "%s %s\n", tag, body) }
	switch workload {
	case "cold-audit":
		for c := 0; c < 2; c++ {
			cl := newColdClient(seed, c)
			for i := 0; i < 32; i++ {
				emit("submit", mustJSON(cl.next().body))
			}
		}
	case "hit-mix":
		reqs := hitDeployments(seed)
		bodies := make([][]byte, len(reqs))
		for i, r := range reqs {
			bodies[i] = mustJSON(r)
			emit("prime", bodies[i])
		}
		for phase := 0; phase < 2; phase++ {
			for _, op := range hitSchedule(seed, phase, bodies, time.Second) {
				emit(op.due.String(), op.body)
			}
		}
	case "churn-watch":
		cf, err := newChurnFleet(seed)
		if err != nil {
			t.Fatal(err)
		}
		emit("boot", mustJSON(auditd.WireRecords(cf.boot)))
		var hot [][]byte
		for _, r := range cf.hot {
			hot = append(hot, mustJSON(r))
			emit("prime", hot[len(hot)-1])
		}
		emit("watch", mustJSON(cf.watchRequest()))
		for phase := 0; phase < 2; phase++ {
			ops, err := cf.churnSchedule(seed, phase, hot, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				emit(op.due.String()+" "+op.kind, op.body)
			}
		}
		node := cf.fleet.Node(cf.probe[0])
		for i := 0; i < 4; i++ {
			emit("probe", mustJSON(auditd.WireRecords([]deps.Record{node.FlapNIC()})))
		}
	case "fleet-fanout":
		_, servers, err := fatTreeRecords(fleetK, -1)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			cl := newFleetClient(seed, c, servers)
			for i := 0; i < 16; i++ {
				req, entry := cl.next()
				emit(fmt.Sprint("node", entry), mustJSON(req))
			}
		}
	default:
		t.Fatalf("no stream for %s", workload)
	}
	return buf.Bytes()
}

func TestSeedDeterminesRequestStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := stream(t, w.name, 1), stream(t, w.name, 1)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed generated two different request streams")
			}
			if c := stream(t, w.name, 2); bytes.Equal(a, c) {
				t.Fatal("seeds 1 and 2 generated the same request stream")
			}
		})
	}
}

func TestFixedInputSizes(t *testing.T) {
	recs, servers, err := fatTreeRecords(coldK, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != coldRecordsWant || len(servers) != 128 {
		t.Fatalf("k=16 database: %d records over %d servers, want 8192 over 128", len(recs), len(servers))
	}
	if n := len(hitDeployments(1)); n != hitPrimed {
		t.Fatalf("hit-mix primes %d audits, want %d", n, hitPrimed)
	}
}
