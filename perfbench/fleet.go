package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/report"
	"indaas/internal/sia"
)

var fleetFanout = &workload{
	name: "fleet-fanout",
	why: "many-deployment audits enter a two-node cluster: forwarding to hash owners, fan-out and splice, " +
		"and the peer result tier do the work that single-node workloads never reach",
	tailPct:   90,
	primary:   "submit -> report bytes of a computed 8-deployment audit fanned out across the fleet",
	secondary: "resubmit of a finished audit to the other node, answered 200 done from the peer tier, plus report bytes",
	setupReps: 9,
	run:       runFleet,
}

// fleetNodes is the cluster size: one node per CPU of the 2-CPU host the
// benchmark targets, each with one worker.
const fleetNodes = 2

func runFleet(e *env, o *outcome) error {
	records, servers, err := fatTreeRecords(fleetK, -1)
	if err != nil {
		return err
	}
	ingest := mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(records)})
	db, err := buildDB(records)
	if err != nil {
		return err
	}
	snap := db.Snapshot()

	// Setup: two clustered memory-only daemons that see each other healthy,
	// the k=8 database ingested through node 0 and replicated to node 1, and
	// one fan-out plus peer hit so lazy initialisation is not timed.
	var nodes []*daemon
	stopAll := func() {
		for _, d := range nodes {
			d.stop()
		}
		nodes = nil
	}
	defer stopAll()
	var bases []string
	for rep := 0; rep < e.setupReps; rep++ {
		stopAll()
		t0 := time.Now()
		bases = bases[:0]
		var ports []int
		for i := 0; i < fleetNodes; i++ {
			p, err := freePort()
			if err != nil {
				return err
			}
			ports = append(ports, p)
			bases = append(bases, "http://127.0.0.1:"+strconv.Itoa(p))
		}
		for i := 0; i < fleetNodes; i++ {
			d, err := startDaemon(e.bin, e.logPath("fleet"), "127.0.0.1:"+strconv.Itoa(ports[i]),
				"-workers", "1", "-peers", bases[1-i], "-cluster-poll", "200ms")
			if err != nil {
				return err
			}
			nodes = append(nodes, d)
		}
		conns := []*conn{newConn(bases[0]), newConn(bases[1])}
		if err := awaitPeers(conns...); err != nil {
			return err
		}
		if _, err := conns[0].ingest(ingest); err != nil {
			return fmt.Errorf("bootstrap ingest: %w", err)
		}
		for _, c := range conns {
			h, err := c.health()
			if err != nil {
				return err
			}
			if h.DBFingerprint != db.Fingerprint() {
				return fmt.Errorf("node %s did not converge on the bootstrap database", c.base)
			}
		}
		warm, _ := newFleetClient(-1, rep, servers).next()
		if _, err := conns[0].audit(mustJSON(warm)); err != nil {
			return fmt.Errorf("warm-up audit: %w", err)
		}
		if _, err := conns[1].audit(mustJSON(warm)); err != nil {
			return fmt.Errorf("warm-up resubmit: %w", err)
		}
		for _, c := range conns {
			c.close()
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	for _, d := range nodes {
		o.flags = append(o.flags, d.args)
	}
	e.logf("fleet-fanout: setup done, load %v", e.load)

	type served struct {
		req           *auditd.SubmitRequest
		report, resub []byte
	}
	var (
		mu   sync.Mutex
		done []served
	)
	clients := []*fleetClient{newFleetClient(e.seed, 0, servers), newFleetClient(e.seed, 1, servers)}
	load := func(dur time.Duration, tr *tracer) loadResult {
		var r loadResult
		var wg sync.WaitGroup
		start := time.Now()
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *fleetClient) {
				defer wg.Done()
				conns := []*conn{newConn(bases[0]), newConn(bases[1])}
				defer conns[0].close()
				defer conns[1].close()
				for time.Since(start) < dur {
					req, entry := cl.next()
					body := mustJSON(req)
					t0 := time.Now()
					run, err := conns[entry].audit(body)
					lat := time.Since(t0)
					mu.Lock()
					o.attempted++
					mu.Unlock()
					if err != nil {
						o.fail(err)
						continue
					}
					tr.observe(conns[entry], run, lat, true)
					t1 := time.Now()
					hit, err := conns[1-entry].audit(body)
					hitLat := time.Since(t1)
					mu.Lock()
					o.attempted++
					mu.Unlock()
					if err != nil {
						o.fail(err)
						continue
					}
					peer := hit.code == 200 && hit.submit.Cached
					if tr != nil {
						tr.mu.Lock()
						tr.fleetResubs++
						if peer {
							tr.fleetPeerHits++
						}
						tr.mu.Unlock()
					}
					mu.Lock()
					r.ops.add() // the fan-out
					r.ops.add() // its resubmit
					r.primary.add(lat)
					if peer {
						r.secondary.add(hitLat)
					}
					done = append(done, served{req, run.report, hit.report})
					mu.Unlock()
				}
			}(cl)
		}
		wg.Wait()
		return r
	}
	measure(e, o, load, nodes...)
	for _, d := range nodes {
		o.rssMB += d.peakRSSMB()
	}

	// Oracle: the spliced fan-out report and the resubmitted one both equal
	// a single-node run. Single-deployment audits are memoized per server
	// pair; the reference report ranks them exactly as sia does.
	audits := map[string]report.DeploymentAudit{}
	for _, s := range done {
		ref := &report.Report{}
		for _, spec := range specsOf(s.req) {
			k := fmt.Sprint(spec.Servers)
			a, ok := audits[k]
			if !ok {
				rep, err := sia.AuditDeployments(snap, "", []sia.GraphSpec{spec}, sia.Options{Algorithm: sia.MinimalRG})
				if err != nil {
					return err
				}
				a = rep.Audits[0]
				audits[k] = a
			}
			a.Deployment, a.Elapsed = spec.Deployment, 0
			ref.Audits = append(ref.Audits, a)
		}
		ref.Rank(report.CompareBySizeVector)
		want, err := encodeServed(ref) // already canonical: no title, no timings
		if err != nil {
			return err
		}
		got, err := canonical(s.report, "")
		if err != nil || !bytes.Equal(got, want) {
			o.mismatch("fan-out report for %s differs from a single-node run", s.req.Deployments[0].Name)
			continue
		}
		if !bytes.Equal(s.resub, s.report) {
			if got, err := canonical(s.resub, ""); err != nil || !bytes.Equal(got, want) {
				o.mismatch("resubmitted report for %s differs from a single-node run", s.req.Deployments[0].Name)
			}
		}
	}
	if !e.traced {
		return nil
	}
	var reports [][]byte
	for _, s := range done[:min(len(done), 8)] {
		reports = append(reports, s.report)
	}
	return replayLayers(e, o, layerInput{records: records, specs: specsOf(done[0].req), reports: reports})
}
