package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"indaas/internal/auditd"
)

// loadResult is what one timed load phase measured.
type loadResult struct {
	primary, secondary series
	late               samples
	ops                stamps
}

// loadFunc drives a workload's load for d. With a non-nil tracer it also
// collects the per-layer view of every submission.
type loadFunc func(d time.Duration, tr *tracer) loadResult

// measure runs the timed load against the daemons ds. Untraced, it feeds
// the end-to-end metrics: the load is cut into timeSlices spans whose host
// steal is recorded, and the daemons' CPU time over the whole load gives
// cpu_ms_per_op. Traced, the first half runs untraced and the second
// traced — bracketed by /metrics scrapes of the daemons — so
// trace.overhead_frac compares the two halves' primary medians and the
// tracer feeds the per-layer metrics.
func measure(e *env, o *outcome, load loadFunc, ds ...*daemon) {
	cpu := func() (ns int64) {
		for _, d := range ds {
			ns += d.cpuNS()
		}
		return ns
	}
	if !e.traced {
		c0 := cpu()
		sw := watchSteal(e.load / timeSlices)
		r := load(e.load, nil)
		o.spans = sw.end()
		o.cpuMS = float64(cpu()-c0) / 1e6
		o.primary, o.secondary, o.late, o.ops = r.primary, r.secondary, r.late, r.ops
		return
	}
	base := load(e.load/2, nil)
	tr := newTracer()
	var bases []string
	for _, d := range ds {
		bases = append(bases, d.base)
	}
	win := openWindow(bases...)
	r := load(e.load/2, tr)
	win.close()
	tr.emit(o, win)
	o.late = append(base.late, r.late...)
	o.layer("trace.overhead_frac", r.primary.ms.pct(50)/base.primary.ms.pct(50)-1)
	o.layer("loadgen.late_p99_ms", o.late.pct(99))
}

// tracer collects the auditd view of traced submissions: client round
// trips, the job timestamps and flags, and each computed job's own trace
// phases (GET /v1/jobs/{id}/trace).
type tracer struct {
	mu                         sync.Mutex
	post, get, queueWait, run  samples
	hit                        samples // submit→report of hit-served jobs
	tiers                      map[string]int
	unaccounted                []float64
	phaseMS                    map[string]samples
	ingests                    int
	fleetPeerHits, fleetResubs int
}

func newTracer() *tracer {
	return &tracer{tiers: map[string]int{}, phaseMS: map[string]samples{}}
}

// tier names which layer answered a submission.
func tier(st auditd.JobStatus) string {
	switch {
	case st.Cached && st.DiskHit:
		return "disk"
	case st.Cached:
		return "memory"
	case st.DeltaHit:
		return "delta"
	case st.Coalesced:
		return "coalesced"
	}
	return "computed"
}

// observe records one finished submission; e2e is its end-to-end latency
// and primary marks the workload's headline operation, whose unaccounted
// share is measured. Computed jobs' traces are fetched over c.
func (t *tracer) observe(c *conn, r jobRun, e2e time.Duration, primary bool) {
	if t == nil {
		return
	}
	var phases []auditdPhase
	computed := r.st.StartedAt != nil && r.st.FinishedAt != nil && tier(r.submit) != "memory" && tier(r.submit) != "disk"
	if computed {
		var tr auditd.TraceResponse
		if err := c.getJSON("/v1/jobs/"+r.st.ID+"/trace", &tr); err == nil {
			for _, p := range tr.Phases {
				phases = append(phases, auditdPhase{p.Name, p.StartNS, p.DurationNS})
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.post.add(r.post)
	t.get.add(r.get)
	kind := tier(r.submit)
	t.tiers[kind]++
	if kind != "computed" && kind != "coalesced" && r.submit.State == auditd.StateDone {
		t.hit.add(e2e)
	}
	if computed {
		t.queueWait.add(r.st.StartedAt.Sub(r.st.SubmittedAt))
		t.run.add(r.st.FinishedAt.Sub(*r.st.StartedAt))
		for _, p := range phases {
			s := t.phaseMS[p.name]
			s.add(time.Duration(p.dur))
			t.phaseMS[p.name] = s
		}
	}
	if primary && e2e > 0 {
		covered := time.Duration(union(phases)) + r.get
		t.unaccounted = append(t.unaccounted, float64(e2e-covered)/float64(e2e))
	}
}

type auditdPhase struct {
	name       string
	start, dur int64
}

// union is the total length the phases cover, overlaps counted once.
func union(ps []auditdPhase) int64 {
	sort.Slice(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
	var total, end int64
	end = -1 << 62
	for _, p := range ps {
		s, f := p.start, p.start+p.dur
		if s < end {
			s = end
		}
		if f > s {
			total += f - s
			end = f
		}
	}
	return total
}

// scrapeWindow brackets the traced phase with /metrics scrapes of every
// node and samples the queue depth while it runs (over one extra connection
// per node, traced runs only).
type scrapeWindow struct {
	conns    []*conn
	before   []map[string]float64
	after    []map[string]float64
	maxQueue float64
	stop     chan struct{}
	done     chan struct{}
	start    time.Time
	elapsed  time.Duration
}

func openWindow(bases ...string) *scrapeWindow {
	w := &scrapeWindow{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	for _, b := range bases {
		c := newConn(b)
		m, _ := c.scrape()
		w.conns = append(w.conns, c)
		w.before = append(w.before, m)
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				for _, c := range w.conns {
					if m, err := c.scrape(); err == nil && m["auditd_queue_depth"] > w.maxQueue {
						w.maxQueue = m["auditd_queue_depth"]
					}
				}
			}
		}
	}()
	return w
}

func (w *scrapeWindow) close() {
	close(w.stop)
	<-w.done
	w.elapsed = time.Since(w.start)
	for _, c := range w.conns {
		m, _ := c.scrape()
		w.after = append(w.after, m)
		c.close()
	}
}

// delta sums a counter's growth across nodes over the window.
func (w *scrapeWindow) delta(name string) float64 {
	t := 0.0
	for i := range w.after {
		t += w.after[i][name] - w.before[i][name]
	}
	return t
}

// emit turns the window and tracer into the auditd, watch and cluster
// per-layer metrics the daemon itself can answer.
func (t *tracer) emit(o *outcome, w *scrapeWindow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, n := range t.tiers {
		total += n
	}
	frac := func(k string) float64 {
		if total == 0 {
			return 0
		}
		return float64(t.tiers[k]) / float64(total)
	}
	o.layer("auditd.post_ms", t.post.pct(50))
	o.layer("auditd.report_get_ms", t.get.pct(50))
	o.layer("auditd.queue_wait_p50_ms", t.queueWait.pct(50))
	o.layer("auditd.queue_wait_p90_ms", t.queueWait.pct(90))
	o.layer("auditd.run_ms", t.run.pct(50))
	o.layer("auditd.hit_ms", t.hit.pct(50))
	for _, k := range []string{"memory", "disk", "delta", "computed", "coalesced"} {
		o.layer("auditd."+k+"_frac", frac(k))
	}
	workers := 0.0
	for _, a := range w.after {
		workers += a["auditd_workers"]
	}
	busy := 0.0
	if workers > 0 {
		busy = w.delta("auditd_job_compute_seconds_sum") / (w.elapsed.Seconds() * workers)
	}
	o.layer("auditd.worker_busy_frac", busy)
	o.layer("auditd.queue_depth_max", w.maxQueue)
	o.layer("auditd.rejected", w.delta("auditd_jobs_rejected_total"))
	names := make([]string, 0, len(t.phaseMS))
	for name := range t.phaseMS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.phaseMS[name]
		o.notes = append(o.notes, fmt.Sprintf("job trace phase %-12s p50 %9.3f ms  n=%d", name, s.pct(50), len(s)))
	}
	o.layer("trace.unaccounted_frac", median(t.unaccounted))

	events := w.delta("auditd_watch_events_total")
	o.layer("watch.events", events)
	perIngest := 0.0
	if t.ingests > 0 {
		perIngest = events / float64(t.ingests)
	}
	o.layer("watch.events_per_ingest", perIngest)
	o.layer("watch.evicted", w.delta("auditd_watch_evicted_total"))

	peerFrac := 0.0
	if t.fleetResubs > 0 {
		peerFrac = float64(t.fleetPeerHits) / float64(t.fleetResubs)
	}
	o.layer("cluster.peer_hit_frac", peerFrac)
	o.layer("cluster.local_fallbacks", w.delta("auditd_cluster_forward_failures_total"))
}
