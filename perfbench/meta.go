package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metadata describes the host and the code a result came from. It is
// recorded next to every result and never gated.
func metadata(w *workload, e *env, o *outcome) map[string]any {
	failedFrac := 0.0
	if o.attempted > 0 {
		failedFrac = float64(o.failed) / float64(o.attempted)
	}
	meta := map[string]any{
		"workload":        w.name,
		"seed":            e.seed,
		"traced":          e.traced,
		"load_seconds":    e.load.Seconds(),
		"valid":           len(o.invalid) == 0,
		"invalid_reasons": o.invalid,
		"ops_failed_frac": failedFrac,
		"oracle_mismatch": o.mismatches,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu_model":       cpuModel(),
		"go_version":      runtime.Version(),
		"commit":          commit(),
		"source_sha256":   sourceHash(),
		"daemon_flags":    o.flags,
		"loc":             packageLoC(),
	}
	if len(o.late) > 0 {
		meta["late_p99_ms"] = o.late.pct(99)
	}
	if !e.traced {
		meta["tail_pct"] = w.tailPct
		meta["primary_tail_ms"] = o.primary.ms.pct(w.tailPct)
		meta["secondary_tail_ms"] = o.secondary.ms.pct(w.tailPct)
		var steal []float64
		for _, sp := range o.spans {
			steal = append(steal, sp.steal())
		}
		meta["span_steal_frac"] = steal
		meta["calm_spans"] = len(calm(o.spans))
	}
	if st, tot := cpuTicks(); tot > e.ticks[1] {
		// Share of the host's CPU time the hypervisor gave to other guests
		// while this run was measured: the main source of run-to-run spread
		// on a shared host.
		meta["cpu_steal_frac"] = float64(st-e.ticks[0]) / float64(tot-e.ticks[1])
	}
	return map[string]any{"meta": meta}
}

// cpuTicks reads the machine-wide steal and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git revision when the checkout is a repository, "" when it
// is a plain source tree (source_sha256 identifies the code then).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceWalk visits the module's Go sources, skipping build output and the
// benchmark itself.
func sourceWalk(fn func(path string, data []byte)) {
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			if data, err := os.ReadFile(path); err == nil {
				fn(path, data)
			}
		}
		return nil
	})
}

// sourceHash is a SHA-256 over every Go source path and content, in walk
// (lexical) order.
func sourceHash() string {
	h := sha256.New()
	sourceWalk(func(path string, data []byte) {
		h.Write([]byte(path + "\n"))
		h.Write(data)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// packageLoC counts non-test Go lines per package directory.
func packageLoC() map[string]int {
	loc := map[string]int{}
	sourceWalk(func(path string, data []byte) {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return
		}
		loc[filepath.Dir(path)] += bytes.Count(data, []byte("\n"))
	})
	return loc
}
