package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/deps"
)

var churnWatch = &workload{
	name: "churn-watch",
	why: "dependency data keeps changing under watched and resubmitted audits: depdb put/fingerprint/diff, " +
		"fsynced store appends, dirty-deployment marking, delta splices and watch notification do the work",
	tailPct:   90,
	primary:   "churn ingest (>=64 records) from when it was due to its ack",
	secondary: "probe ingest sent -> the SSE watch event carrying its re-audit",
	setupReps: 9,
	run:       runChurn,
}

func runChurn(e *env, o *outcome) error {
	cf, err := newChurnFleet(e.seed)
	if err != nil {
		return err
	}
	boot := mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(cf.boot)})
	hotBodies := make([][]byte, len(cf.hot))
	for i, r := range cf.hot {
		hotBodies[i] = mustJSON(r)
	}
	watchReq := cf.watchRequest()

	// Setup: a durable daemon bootstrapped from the fleet, every hot audit
	// computed once, and the probe's watch stream open with its initial
	// report delivered.
	var (
		d           *daemon
		dataDir     string
		watcher     *auditd.Watcher
		cancelWatch context.CancelFunc = func() {}
		quit                           = make(chan struct{}) // stops the stream reader below
		readerDone  chan struct{}                            // closed when it has returned
	)
	// closeWatch ends the watch stream: the reader goroutine, when running,
	// is stopped and waited for before the watcher is closed, since a
	// Watcher's Next and Close must not run concurrently.
	closeWatch := func() {
		cancelWatch()
		if readerDone != nil {
			close(quit)
			<-readerDone
			readerDone = nil
		}
		if watcher != nil {
			watcher.Close()
			watcher = nil
		}
	}
	defer func() {
		closeWatch()
		d.stop()
	}()
	for rep := 0; rep < e.setupReps; rep++ {
		closeWatch()
		d.stop()
		os.RemoveAll(dataDir)
		dataDir = filepath.Join(e.work, fmt.Sprintf("churn-data-%d", rep))
		t0 := time.Now()
		if d, err = startDaemon(e.bin, e.logPath("churn"), "127.0.0.1:0", "-data-dir", dataDir); err != nil {
			return err
		}
		if err := primeAll(d.base, boot, hotBodies, make([][]byte, len(hotBodies))); err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancelWatch = cancel
		cl := auditd.NewClient(d.base, &http.Client{Transport: &http.Transport{}})
		if watcher, err = cl.Watch(ctx, watchReq); err != nil {
			return fmt.Errorf("watch subscribe: %w", err)
		}
		if _, err := watcher.Next(); err != nil {
			return fmt.Errorf("initial watch report: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	o.flags = append(o.flags, d.args)
	e.logf("churn-watch: setup done, load %v", e.load)

	// The SSE stream is read on its own goroutine into a channel the probe
	// waits on.
	events := make(chan *auditd.WatchEvent)
	readerDone = make(chan struct{})
	go func(w *auditd.Watcher) {
		defer close(readerDone)
		defer close(events)
		for {
			ev, err := w.Next()
			if err != nil {
				return
			}
			select {
			case events <- ev:
			case <-quit:
				return
			}
		}
	}(watcher)

	var (
		mu        sync.Mutex
		acked     []deps.Record
		lastEvent *auditd.WatchEvent
		reports   [][]byte
		firstPush []deps.Record
	)
	acked = append(acked, cf.boot...)
	probe := cf.fleet.Node(cf.probe[0])
	phase := 0
	load := func(dur time.Duration, tr *tracer) loadResult {
		ops, err := cf.churnSchedule(e.seed, phase, hotBodies, dur)
		phase++
		if err != nil {
			o.fail(err)
			return loadResult{}
		}
		if firstPush == nil {
			firstPush = ops[0].recs
		}
		var r loadResult
		stop := make(chan struct{})
		probeDone := make(chan struct{})
		// The probe: a closed loop flapping a watched NIC and waiting for
		// the notification, on the second request connection.
		go func() {
			defer close(probeDone)
			c := newConn(d.base)
			defer c.close()
			for {
				select {
				case <-stop:
					return
				case <-time.After(churnProbePause):
				}
				rec := []deps.Record{probe.FlapNIC()}
				t0 := time.Now()
				_, err := c.ingest(mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(rec)}))
				mu.Lock()
				o.attempted++
				if err == nil {
					acked = append(acked, rec...)
					if tr != nil {
						tr.mu.Lock()
						tr.ingests++
						tr.mu.Unlock()
					}
				}
				mu.Unlock()
				if err != nil {
					o.fail(err)
					continue
				}
				ev, err := awaitEvent(events, cf.probe[0])
				lat := time.Since(t0)
				if err != nil {
					o.fail(err)
					return
				}
				mu.Lock()
				lastEvent = ev
				r.secondary.add(lat)
				r.ops.add()
				mu.Unlock()
			}
		}()
		openLoop(d.base, ops, 1, func(c *conn, op openOp, due time.Time) {
			if op.kind == "ingest" {
				_, err := c.ingest(op.body)
				lat := time.Since(due)
				mu.Lock()
				defer mu.Unlock()
				o.attempted++
				if err != nil {
					o.fail(err)
					return
				}
				acked = append(acked, op.recs...)
				if tr != nil {
					tr.mu.Lock()
					tr.ingests++
					tr.mu.Unlock()
				}
				r.primary.add(lat)
				r.ops.add()
				return
			}
			run, err := c.audit(op.body)
			lat := time.Since(due)
			mu.Lock()
			o.attempted++
			mu.Unlock()
			if err != nil {
				o.fail(err)
				return
			}
			tr.observe(c, run, lat, false)
			mu.Lock()
			r.ops.add()
			if len(reports) < 8 {
				reports = append(reports, run.report)
			}
			mu.Unlock()
		}, &r)
		close(stop)
		<-probeDone
		return r
	}
	measure(e, o, load, d)
	o.rssMB = d.peakRSSMB()

	// Oracles: the daemon's database equals one rebuilt from every acked
	// record, and the last watch event equals a full recompute over it.
	db, err := buildDB(acked)
	if err != nil {
		return err
	}
	hc := newConn(d.base)
	h, err := hc.health()
	hc.close()
	if err != nil {
		return err
	}
	if h.DBFingerprint != db.Fingerprint() || h.DBRecords != db.Len() {
		o.mismatch("daemon database (%d records, %.12s) differs from the rebuilt one (%d records, %.12s)",
			h.DBRecords, h.DBFingerprint, db.Len(), db.Fingerprint())
	}
	if lastEvent == nil || lastEvent.Report == nil {
		o.mismatch("the watch delivered no report during the load")
	} else {
		want, err := reference(db.Snapshot(), specsOf(watchReq), optsOf(watchReq), "")
		if err != nil {
			return err
		}
		raw, err := encodeServed(lastEvent.Report)
		if err != nil {
			return err
		}
		got, err := canonical(raw, "")
		if err != nil || !bytes.Equal(got, want) {
			o.mismatch("the last watch report differs from a full recompute")
		}
	}
	if !e.traced {
		return nil
	}
	closeWatch()
	d.stop()
	d = nil
	specs := append(specsOfAll(cf.hot[:3]), specsOf(watchReq)...)
	return replayLayers(e, o, layerInput{records: acked, specs: specs, reports: reports, batch: firstPush, dataDir: dataDir})
}

// awaitEvent waits for the watch event a probe ingest on server triggered.
func awaitEvent(events <-chan *auditd.WatchEvent, server string) (*auditd.WatchEvent, error) {
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return nil, fmt.Errorf("watch stream ended")
			}
			if ev.Error != "" {
				return nil, fmt.Errorf("watch re-audit failed: %s", ev.Error)
			}
			if slices.Contains(ev.Trigger, server) {
				return ev, nil
			}
		case <-timeout:
			return nil, fmt.Errorf("no watch event for %s within 30s", server)
		}
	}
}
