package main

// In-process replays of a workload's own generated inputs through each
// layer's public functions, timed from here: no tracing lives inside the
// program. They run after the timed load, in traced runs only.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/cluster"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/riskgroup"
	"indaas/internal/sia"
	"indaas/internal/store"
)

// layerInput is the slice of a workload's inputs the replays use.
type layerInput struct {
	records []deps.Record   // the database the daemon served
	specs   []sia.GraphSpec // audited deployments (a few)
	reports [][]byte        // report bytes as served
	batch   []deps.Record   // one ingest batch; nil synthesizes NIC records
	dataDir string          // the stopped durable daemon's store; "" = memory-only
}

// replayPuts is how many fsynced store puts the store replay times: enough
// for ten samples beyond its p90.
const replayPuts = 120

func replayLayers(e *env, o *outcome, in layerInput) error {
	if len(in.specs) > 4 {
		in.specs = in.specs[:4]
	}
	db, err := buildDB(in.records)
	if err != nil {
		return err
	}
	snap := db.Snapshot()

	// sia and riskgroup: build each graph, fold its minimal RGs, sample it.
	var build, minrg, sample, rgs, basics samples
	detect := 0.0
	for _, spec := range in.specs {
		t0 := time.Now()
		g, err := sia.BuildGraph(snap, spec)
		build.add(time.Since(t0))
		if err != nil {
			return err
		}
		basics = append(basics, float64(g.NumBasics()))
		t0 = time.Now()
		exact, err := riskgroup.MinimalRGsContext(context.Background(), g, riskgroup.MinimalOptions{})
		minrg.add(time.Since(t0))
		if err != nil {
			return err
		}
		rgs = append(rgs, float64(len(exact)))
		t0 = time.Now()
		found, err := riskgroup.Sampler{Rounds: samplingRounds, Shrink: true, Seed: coldSampleSeed, Workers: 1}.Sample(g)
		sample.add(time.Since(t0))
		if err != nil {
			return err
		}
		detect += riskgroup.DetectionRate(exact, found) / float64(len(in.specs))
	}
	o.layer("sia.build_graph_ms", build.pct(50))
	o.layer("sia.basic_events", basics.pct(50))
	o.layer("riskgroup.minrg_ms", minrg.pct(50))
	o.layer("riskgroup.rgs_found", rgs.pct(50))
	o.layer("riskgroup.sample_ms", sample.pct(50))
	o.layer("riskgroup.rounds_per_ms", samplingRounds/sample.pct(50))
	o.layer("riskgroup.detect_frac", detect)

	// depdb: one ingest batch against the workload's database.
	batch := in.batch
	if batch == nil {
		subjects := db.Subjects()
		for i := 0; i < churnPushRecs; i++ {
			s := subjects[i%len(subjects)]
			batch = append(batch, deps.NewHardware(s, "NIC", fmt.Sprintf("%s-nic-%d", s, i)))
		}
	}
	var put, fpw, snapT, diffT, dirty samples
	for rep := 0; rep < 5; rep++ {
		before := db.Snapshot()
		t0 := time.Now()
		db.FingerprintWith(batch...)
		fpw.add(time.Since(t0))
		t0 = time.Now()
		if err := db.Put(batch...); err != nil {
			return err
		}
		put.add(time.Since(t0) / time.Duration(len(batch)))
		t0 = time.Now()
		after := db.Snapshot()
		snapT.add(time.Since(t0))
		t0 = time.Now()
		diff := before.Diff(after)
		diffT.add(time.Since(t0))
		t0 = time.Now()
		sia.DirtyDeployments(in.specs, diff)
		dirty.add(time.Since(t0))
	}
	o.layer("depdb.put_us", put.pct(50)*1e3)
	o.layer("depdb.fingerprint_with_us", fpw.pct(50)*1e3)
	o.layer("depdb.snapshot_us", snapT.pct(50)*1e3)
	o.layer("depdb.diff_us", diffT.pct(50)*1e3)
	o.layer("depdb.records", float64(len(in.records)))
	o.layer("sia.dirty_us", dirty.pct(50)*1e3)

	// report: encode the served reports as the daemon does.
	var enc, size samples
	for _, raw := range in.reports {
		var rep report.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return err
		}
		t0 := time.Now()
		out, err := encodeServed(&rep)
		enc.add(time.Since(t0))
		if err != nil {
			return err
		}
		size = append(size, float64(len(out)))
	}
	o.layer("report.encode_ms", enc.pct(50))
	o.layer("report.bytes", size.pct(50))

	if err := replayStore(e, o, in); err != nil {
		return err
	}
	if err := replayWatch(o); err != nil {
		return err
	}
	return replayCluster(o)
}

// replayStore times fsynced puts and gets of the served reports in a fresh
// store, then the recovery Open of the daemon's data directory (or of the
// replay store for a memory-only workload).
func replayStore(e *env, o *outcome, in layerInput) error {
	dir := filepath.Join(e.work, "replay-store")
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	var put, get samples
	for i := 0; i < replayPuts; i++ {
		key := fmt.Sprintf("replay-%d", i)
		t0 := time.Now()
		if _, err := st.Put(key, store.KindResult, in.reports[i%len(in.reports)]); err != nil {
			st.Close()
			return err
		}
		put.add(time.Since(t0))
	}
	for i := 0; i < replayPuts; i++ {
		t0 := time.Now()
		if _, _, ok, err := st.Get(fmt.Sprintf("replay-%d", i)); err != nil || !ok {
			st.Close()
			return fmt.Errorf("store replay get %d: ok=%v err=%v", i, ok, err)
		}
		get.add(time.Since(t0))
	}
	if err := st.Close(); err != nil {
		return err
	}
	if in.dataDir != "" {
		dir = in.dataDir
	}
	t0 := time.Now()
	st, err = store.Open(store.Options{Dir: dir})
	open := time.Since(t0)
	if err != nil {
		return err
	}
	stats := st.Stats()
	st.Close()
	o.layer("store.put_p50_us", put.pct(50)*1e3)
	o.layer("store.put_p90_us", put.pct(90)*1e3)
	o.layer("store.get_us", get.pct(50)*1e3)
	o.layer("store.open_ms", ms(open))
	o.layer("store.file_per_live_bytes", float64(stats.FileBytes)/float64(max(stats.LiveBytes, 1)))
	return nil
}

// replayWatch times the watch hub's fan-out: one ingest touching a
// deployment that watchSubs in-process subscribers watch, until every one of
// them holds its re-audit event. The watched deployment is a two-record
// probe, so the re-audit itself is negligible next to the fan-out.
func replayWatch(o *outcome) error {
	const watchSubs = 32
	db, err := buildDB([]deps.Record{
		deps.NewHardware("wprobe-a", "NIC", "nic-a0"),
		deps.NewHardware("wprobe-b", "NIC", "nic-b0"),
	})
	if err != nil {
		return err
	}
	s := auditd.New(auditd.Config{Workers: 1, DB: db})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	req := &auditd.SubmitRequest{Deployments: []auditd.DeploymentWire{{Name: "w", Servers: []string{"wprobe-a", "wprobe-b"}}}}
	var subs []*auditd.Subscription
	for i := 0; i < watchSubs; i++ {
		sub, err := s.Watch(req, 0)
		if err != nil {
			return err
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	await := func() error {
		for _, sub := range subs {
			select {
			case _, ok := <-sub.Events():
				if !ok {
					return fmt.Errorf("watch replay: subscription closed")
				}
			case <-time.After(10 * time.Second):
				return fmt.Errorf("watch replay: no event within 10s")
			}
		}
		return nil
	}
	if err := await(); err != nil { // the initial reports
		return err
	}
	var fan samples
	for rep := 0; rep < 10; rep++ {
		t0 := time.Now()
		rec := []deps.Record{deps.NewHardware("wprobe-a", "NIC", fmt.Sprintf("nic-a%d", rep+1))}
		if _, err := s.Ingest(&auditd.IngestRequest{Records: auditd.WireRecords(rec)}); err != nil {
			return err
		}
		if err := await(); err != nil {
			return err
		}
		fan.add(time.Since(t0))
	}
	o.layer("watch.fanout_us", fan.pct(50)*1e3)
	return nil
}

// replayCluster times the cluster layer on an in-process two-node fleet over
// the k=4 fat tree: single-deployment audits forwarded to their owner, and
// eight-deployment audits fanned out and spliced.
func replayCluster(o *outcome) error {
	records, servers, err := fatTreeRecords(4, -1)
	if err != nil {
		return err
	}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	var conns []*conn
	for i := range lns {
		db, err := buildDB(records)
		if err != nil {
			return err
		}
		node := cluster.New(cluster.Config{Self: addrs[i], Peers: []string{addrs[1-i]}, PollInterval: 50 * time.Millisecond})
		svc := auditd.New(auditd.Config{
			Workers: 1, DB: db,
			WrapExecutor: node.WrapExecutor, ExtraTiers: []auditd.ResultTier{node.PeerTier()},
			ReplicateHook: node.Replicate, ExtraMetrics: node.RenderMetrics,
		})
		node.Start()
		hs := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go hs.Serve(lns[i])
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			svc.Shutdown(ctx)
			node.Stop()
		}()
		c := newConn(addrs[i])
		defer c.close()
		conns = append(conns, c)
	}
	if err := awaitPeers(conns...); err != nil {
		return err
	}
	c := conns[0]
	var fwd, fan samples
	for i := 0; i < 24; i++ {
		before, err := c.scrape()
		if err != nil {
			return err
		}
		req := &auditd.SubmitRequest{Deployments: []auditd.DeploymentWire{{Name: fmt.Sprint("fwd-", i), Servers: []string{servers[i%len(servers)], servers[(i+5)%len(servers)]}}}}
		t0 := time.Now()
		if _, err := c.audit(mustJSON(req)); err != nil {
			return err
		}
		lat := time.Since(t0)
		after, err := c.scrape()
		if err != nil {
			return err
		}
		if after["auditd_cluster_forwards_total"] > before["auditd_cluster_forwards_total"] {
			fwd.add(lat)
		}
	}
	for i := 0; i < 8; i++ {
		req := &auditd.SubmitRequest{}
		for d := 0; d < fleetDeployments; d++ {
			req.Deployments = append(req.Deployments, auditd.DeploymentWire{Name: fmt.Sprintf("fan-%d-%d", i, d), Servers: []string{servers[(i+d)%len(servers)], servers[(i+3*d+1)%len(servers)]}})
		}
		t0 := time.Now()
		if _, err := c.audit(mustJSON(req)); err != nil {
			return err
		}
		fan.add(time.Since(t0))
	}
	o.layer("cluster.forward_ms", fwd.pct(50))
	o.layer("cluster.fanout_ms", fan.pct(50))
	return nil
}

// awaitPeers waits until every node sees all its peers healthy.
func awaitPeers(conns ...*conn) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range conns {
		for {
			m, err := c.scrape()
			if err == nil && m["auditd_cluster_peers_healthy"] == float64(len(conns)-1) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster peers of %s never became healthy", c.base)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
