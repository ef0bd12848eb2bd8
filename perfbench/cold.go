package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/sia"
)

var coldAudit = &workload{
	name: "cold-audit",
	why: "every request computes: the riskgroup fold and sampler, the sia graph build and the 725 KB report encode " +
		"do the work; store, depdb writes, watch and cluster are bypassed",
	tailPct:   90,
	primary:   "submit -> report bytes of a computed minimal-RG audit (k=16 cross-pod pair, 767 RGs)",
	secondary: "submit -> report bytes of a computed failure-sampling audit (20k rounds)",
	setupReps: 9,
	run:       runCold,
}

func runCold(e *env, o *outcome) error {
	records, _, err := fatTreeRecords(coldK, 1)
	if err != nil {
		return err
	}
	if len(records) != coldRecordsWant {
		return fmt.Errorf("k=%d fat tree gave %d records, want %d", coldK, len(records), coldRecordsWant)
	}
	ingest := mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(records)})
	pool := coldPairPool(e.seed)

	// Setup: boot a memory-only daemon, bootstrap the fat tree, and run one
	// audit of each algorithm so lazy initialisation is not timed.
	var d *daemon
	defer func() { d.stop() }()
	for rep := 0; rep < e.setupReps; rep++ {
		d.stop()
		t0 := time.Now()
		if d, err = startDaemon(e.bin, e.logPath("cold"), "127.0.0.1:0", "-workers", "2"); err != nil {
			return err
		}
		c := newConn(d.base)
		if _, err := c.ingest(ingest); err != nil {
			return fmt.Errorf("bootstrap ingest: %w", err)
		}
		for i, sampling := range []bool{false, true} {
			if _, err := c.audit(mustJSON(coldBody(fmt.Sprintf("warm-%d-%d", rep, i), pool[0], sampling))); err != nil {
				return fmt.Errorf("warm-up audit: %w", err)
			}
		}
		c.close()
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	o.flags = append(o.flags, d.args)
	e.logf("cold-audit: setup done, load %v", e.load)

	type served struct {
		req    coldReq
		report []byte
	}
	var (
		mu   sync.Mutex
		done []served
	)
	clients := []*coldClient{newColdClient(e.seed, 0), newColdClient(e.seed, 1)}
	load := func(dur time.Duration, tr *tracer) loadResult {
		var r loadResult
		var wg sync.WaitGroup
		start := time.Now()
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *coldClient) {
				defer wg.Done()
				c := newConn(d.base)
				defer c.close()
				for time.Since(start) < dur {
					req := cl.next()
					t0 := time.Now()
					run, err := c.audit(mustJSON(req.body))
					lat := time.Since(t0)
					mu.Lock()
					o.attempted++
					mu.Unlock()
					if err != nil {
						o.fail(err)
						continue
					}
					tr.observe(c, run, lat, !req.sampling)
					mu.Lock()
					r.ops.add()
					if req.sampling {
						r.secondary.add(lat)
					} else {
						r.primary.add(lat)
					}
					done = append(done, served{req, run.report})
					mu.Unlock()
				}
			}(cl)
		}
		wg.Wait()
		return r
	}
	measure(e, o, load, d)
	o.rssMB = d.peakRSSMB()

	// Oracle: every report must equal the in-process reference for its
	// server pair and algorithm (exact minimal-RG family; sampling bytes at
	// the same seed and worker count), deployment name and timings aside.
	db, err := buildDB(records)
	if err != nil {
		return err
	}
	type refKey struct {
		pair     int
		sampling bool
	}
	refs := map[refKey][]byte{}
	for _, s := range done {
		k := refKey{s.req.pair, s.req.sampling}
		ref, ok := refs[k]
		if !ok {
			spec := specsOf(s.req.body)
			spec[0].Deployment = "x"
			if ref, err = reference(db.Snapshot(), spec, optsOf(s.req.body), "x"); err != nil {
				return err
			}
			refs[k] = ref
		}
		got, err := canonical(s.report, "x")
		if err != nil || !bytes.Equal(got, ref) {
			o.mismatch("%s: report differs from the in-process %s reference", s.req.body.Deployments[0].Name, s.req.body.Algorithm)
		}
	}
	if e.traced {
		var graphs []sia.GraphSpec
		for i, p := range pool {
			graphs = append(graphs, sia.GraphSpec{Deployment: fmt.Sprint("pair", i), Servers: []string{p[0], p[1]}})
		}
		var reports [][]byte
		for _, s := range done {
			if !s.req.sampling && len(reports) < 8 {
				reports = append(reports, s.report)
			}
		}
		return replayLayers(e, o, layerInput{records: records, specs: graphs, reports: reports})
	}
	return nil
}
