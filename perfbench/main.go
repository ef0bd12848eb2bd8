// Command perfbench is the repository benchmark: it starts the real
// `indaas serve` daemon as child processes, drives it over loopback HTTP with
// a seeded workload, checks every answer against an in-process oracle, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics).
// Run it through run.sh, which builds the daemon from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix. Its run function sets the daemon up (several
// times, for setup_s), drives the load and verifies the answers.
type workload struct {
	name string
	why  string
	// tailPct is the tail percentile of both latency slots: the highest one
	// the workload collects at least ten samples beyond in a default run.
	// Tails are recorded but not gated: on a shared host they follow the
	// hypervisor's CPU steal more than the program.
	tailPct   float64
	primary   string // what primary_* measures
	secondary string // what secondary_* measures
	// setupReps is how many times the run sets its daemons up; setup_s is
	// the median. Cheap set-ups repeat more, to steady the median.
	setupReps int
	run       func(e *env, o *outcome) error
}

var workloads = []*workload{coldAudit, hitMix, churnWatch, fleetFanout}

// env is what every workload gets from the command line.
type env struct {
	bin     string // indaas binary
	work    string // per-run work directory
	seed    int64
	load    time.Duration
	traced  bool
	logSeq  int
	verbose bool
	// setupReps is the workload's set-up repetition count.
	setupReps int
	// ticks are the /proc/stat steal and total CPU ticks at start.
	ticks [2]uint64
}

// logPath names the next daemon log file in the work directory.
func (e *env) logPath(tag string) string {
	e.logSeq++
	return filepath.Join(e.work, fmt.Sprintf("%s-%d.log", tag, e.logSeq))
}

// outcome collects one run's measurements.
type outcome struct {
	mu sync.Mutex

	setup              []float64 // seconds per setup repetition
	primary, secondary series    // latency slots
	late               samples   // open-loop lateness, ms
	ops                stamps    // operations completed in the timed load
	spans              []span    // the timed load's stretches and host steal
	rssMB              float64
	cpuMS              float64 // daemon CPU time over the timed load
	attempted, failed  int64
	mismatches         int64
	errs               []string
	flags              [][]string // daemon command lines
	layers             map[string]float64
	invalid            []string
	notes              []string // extra summary lines
}

func (o *outcome) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err.Error())
	}
}

// mismatch records an oracle disagreement: it fails the operation and the
// run.
func (o *outcome) mismatch(format string, args ...any) {
	o.mu.Lock()
	o.mismatches++
	o.mu.Unlock()
	o.fail(fmt.Errorf("oracle: "+format, args...))
}

func (o *outcome) layer(name string, v float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.layers == nil {
		o.layers = make(map[string]float64)
	}
	o.layers[name] = v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-audit, hit-mix, churn-watch, fleet-fanout, or all (every workload BENCHMARK.json lists)")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from (workload, seed)")
	seconds := flag.Float64("seconds", 20, "timed load duration")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := flag.String("indaas", ".bench_build/indaas", "daemon binary built from the checkout")
	work := flag.String("work", ".bench_build/work", "work directory root")
	verbose := flag.Bool("v", false, "log progress to stderr")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = listedWorkloads()
	}
	var run []*workload
	for _, n := range names {
		i := slices.IndexFunc(workloads, func(w *workload) bool { return w.name == n })
		if i < 0 {
			fatalf("unknown workload %q", n)
		}
		run = append(run, workloads[i])
	}
	if _, err := os.Stat(*bin); err != nil {
		fatalf("daemon binary: %v", err)
	}
	stopOnSignal()
	ok := true
	for _, w := range run {
		dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
		e := &env{bin: *bin, work: dir, seed: *seed, load: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, verbose: *verbose, setupReps: w.setupReps}
		e.ticks[0], e.ticks[1] = cpuTicks()
		o := &outcome{}
		if err := w.run(e, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v (daemon logs kept in %s)\n", w.name, err, dir)
			os.Exit(1)
		}
		os.RemoveAll(dir)
		e.logf("setup repetitions (s): %v", o.setup)
		ok = printResult(w, e, o) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// listedWorkloads reads the workload names BENCHMARK.json, at the
// repository root, lists.
func listedWorkloads() []string {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	var b struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &b); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func (e *env) logf(format string, args ...any) {
	if e.verbose {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// printResult prints the human summary, the metadata line and, last, the result
// object. It returns false when an oracle disagreed.
func printResult(w *workload, e *env, o *outcome) bool {
	m := map[string]metric{}
	counts := map[string]int{}
	if !e.traced {
		tail := fmt.Sprintf("p%g", w.tailPct)
		quiet := calm(o.spans)
		primary, secondary := o.primary.within(quiet), o.secondary.within(quiet)
		m["setup_s"] = metric{median(o.setup), "s"}
		m["primary_p50_ms"] = metric{primary.pct(50), "ms"}
		m["secondary_p50_ms"] = metric{secondary.pct(50), "ms"}
		m["ops_per_s"] = metric{o.ops.rate(quiet), "1/s"}
		m["peak_rss_mb"] = metric{o.rssMB, "MB"}
		m["cpu_ms_per_op"] = metric{o.cpuMS / float64(max(len(o.ops), 1)), "ms"}
		counts["setup_s"] = len(o.setup)
		counts["primary_p50_ms"] = len(primary)
		counts["secondary_p50_ms"] = len(secondary)
		counts["ops_per_s"] = len(o.ops)
		counts["peak_rss_mb"] = 1
		counts["cpu_ms_per_op"] = len(o.ops)
		if len(primary) == 0 || len(secondary) == 0 {
			o.invalid = append(o.invalid, "a latency slot has no samples in the calm spans")
		}
		if !o.primary.ms.enoughFor(w.tailPct) {
			o.invalid = append(o.invalid, fmt.Sprintf("primary: %d samples are too few for %s", len(o.primary.ms), tail))
		}
		if !o.secondary.ms.enoughFor(w.tailPct) {
			o.invalid = append(o.invalid, fmt.Sprintf("secondary: %d samples are too few for %s", len(o.secondary.ms), tail))
		}
	} else {
		for k, v := range o.layers {
			m[k] = metric{v, layerUnit(k)}
		}
	}
	if len(o.late) > 0 {
		if l := o.late.pct(99); l > lateLimitMS {
			o.invalid = append(o.invalid, fmt.Sprintf("generator fell behind: late p99 %.1f ms > %d ms", l, lateLimitMS))
		}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d (%s)\n", w.name, e.seed, map[bool]string{false: "end to end", true: "traced, per layer"}[e.traced])
	if !e.traced {
		fmt.Printf("  why       = %s\n  primary   = %s\n  secondary = %s\n  tail      = p%g\n", w.why, w.primary, w.secondary, w.tailPct)
	}
	for _, k := range names {
		if c, ok := counts[k]; ok {
			fmt.Printf("  %-32s %14.4f %-6s n=%d\n", k, m[k].Value, m[k].Unit, c)
		} else {
			fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	if !e.traced {
		fmt.Printf("  tail (p%g over the whole load, recorded, not gated): primary %.4f ms, secondary %.4f ms\n",
			w.tailPct, o.primary.ms.pct(w.tailPct), o.secondary.ms.pct(w.tailPct))
	}
	for _, s := range o.notes {
		fmt.Printf("  %s\n", s)
	}
	for _, s := range o.errs {
		fmt.Printf("  error: %s\n", s)
	}
	meta := metadata(w, e, o)
	blob, _ := json.Marshal(meta)
	fmt.Println(string(blob))
	res := result{Correct: o.mismatches == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	blob, _ = json.Marshal(res)
	fmt.Println(string(blob))
	return res.Correct
}

// lateLimitMS is the open-loop lateness (p99) beyond which the generator,
// not the daemon, set the latencies: the run is then reported invalid.
const lateLimitMS = 50

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "per_ms"):
		return "1/ms"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_per_live_bytes"):
		return "ratio"
	case strings.HasSuffix(name, ".bytes"):
		return "B"
	}
	return "count"
}
