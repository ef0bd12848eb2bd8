package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"indaas/internal/auditd"
)

var hitMix = &workload{
	name: "hit-mix",
	why: "every request is an already-answered audit: the auditd request path, the memory/disk result tiers, " +
		"store reads and report encoding do the work and nothing computes",
	tailPct:   90,
	primary:   "resubmit of a primed audit answered 200 done, plus its report bytes, timed from when it was due (memory and disk hits)",
	secondary: "the same, for the requests the disk tier answered",
	setupReps: 3,
	run:       runHit,
}

func runHit(e *env, o *outcome) error {
	records, _, err := fatTreeRecords(hitK, -1)
	if err != nil {
		return err
	}
	ingest := mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(records)})
	reqs := hitDeployments(e.seed)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = mustJSON(r)
	}
	primed := make([][]byte, len(reqs))

	// Setup: a durable daemon on a fresh data directory, bootstrapped with
	// the k=8 fat tree and primed with every deployment. Priming runs from
	// the coldest key to the hottest so the memory LRU starts out holding
	// the hot head of the Zipf draw.
	var d *daemon
	defer func() { d.stop() }()
	var dataDir string
	phase := 0
	for rep := 0; rep < e.setupReps; rep++ {
		d.stop()
		dataDir = filepath.Join(e.work, fmt.Sprintf("hit-data-%d", rep))
		os.RemoveAll(filepath.Join(e.work, fmt.Sprintf("hit-data-%d", rep-1)))
		t0 := time.Now()
		if d, err = startDaemon(e.bin, e.logPath("hit"), "127.0.0.1:0", "-data-dir", dataDir); err != nil {
			return err
		}
		if err := primeAll(d.base, ingest, bodies, primed); err != nil {
			return err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	o.flags = append(o.flags, d.args)
	e.logf("hit-mix: setup done, load %v", e.load)

	var reports [][]byte
	load := func(dur time.Duration, tr *tracer) loadResult {
		ops := hitSchedule(e.seed, phase, bodies, dur)
		phase++
		var r loadResult
		var mu sync.Mutex
		openLoop(d.base, ops, hitWorkers, func(c *conn, op openOp, due time.Time) {
			run, err := c.audit(op.body)
			lat := time.Since(due)
			mu.Lock()
			o.attempted++
			mu.Unlock()
			switch {
			case err != nil:
				o.fail(err)
				return
			case !bytes.Equal(run.report, primed[op.key]):
				o.mismatch("hit on key %d: report bytes differ from the primed report", op.key)
				return
			case run.code != 200 || !run.submit.Cached:
				o.mismatch("key %d was not answered from a result tier (HTTP %d, %+v)", op.key, run.code, run.submit)
				return
			}
			tr.observe(c, run, lat, true)
			mu.Lock()
			defer mu.Unlock()
			r.ops.add()
			r.primary.add(lat)
			if run.submit.DiskHit {
				r.secondary.add(lat)
			}
			if len(reports) < 8 {
				reports = append(reports, run.report)
			}
		}, &r)
		return r
	}
	measure(e, o, load, d)
	o.rssMB = d.peakRSSMB()
	if !e.traced {
		return nil
	}
	d.stop()
	d = nil
	return replayLayers(e, o, layerInput{records: records, specs: specsOfAll(reqs[:4]), reports: reports, dataDir: dataDir})
}

// primeAll bootstraps a daemon's database and computes every audit once over
// two connections, recording each report as served.
func primeAll(base string, ingest []byte, bodies, primed [][]byte) error {
	c := newConn(base)
	defer c.close()
	if _, err := c.ingest(ingest); err != nil {
		return fmt.Errorf("bootstrap ingest: %w", err)
	}
	errs := make(chan error, hitWorkers)
	for w := 0; w < hitWorkers; w++ {
		go func(w int) {
			c := newConn(base)
			defer c.close()
			for i := len(bodies) - 1 - w; i >= 0; i -= hitWorkers {
				run, err := c.audit(bodies[i])
				if err != nil {
					errs <- fmt.Errorf("priming audit %d: %w", i, err)
					return
				}
				primed[i] = run.report
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < hitWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openLoop sends ops on their schedule over workers connections (op i on
// connection i mod workers), timing each from when it was due; do reports
// each completed op. Lateness — how long after its due time an op was sent —
// lands in r.late.
func openLoop(base string, ops []openOp, workers int, do func(c *conn, op openOp, due time.Time), r *loadResult) {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			for i := w; i < len(ops); i += workers {
				due := start.Add(ops[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(due)
				mu.Lock()
				r.late.add(late)
				mu.Unlock()
				do(c, ops[i], due)
			}
		}(w)
	}
	wg.Wait()
}
