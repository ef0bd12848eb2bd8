package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live tracks the started daemons so an interrupted run can stop them.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// stopOnSignal stops every live daemon and exits when the benchmark is
// interrupted or terminated.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.Lock()
		for d := range live.m {
			d.cmd.Process.Kill()
		}
		for d := range live.m {
			select { // a concurrent stop may already have taken the exit
			case <-d.exit:
			case <-time.After(5 * time.Second):
			}
		}
		live.Unlock()
		os.Exit(1)
	}()
}

// daemon is one `indaas serve` child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	args  []string
	log   *os.File
	ready chan string
	exit  chan error
}

// startDaemon spawns the daemon binary with args plus a listen address and
// waits until it prints its listening line. listen may be "127.0.0.1:0".
func startDaemon(bin, logPath, listen string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"serve", "-listen", listen, "-log-level", "error", "-store-gc-interval", "0"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, args: full, log: logf, ready: make(chan string, 1), exit: make(chan error, 1)}
	live.Lock()
	live.m[d] = true
	live.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "indaas audit service on "); ok {
				d.ready <- rest
			}
		}
		d.exit <- cmd.Wait()
	}()
	select {
	case d.base = <-d.ready:
		return d, nil
	case err := <-d.exit:
		logf.Close()
		return nil, fmt.Errorf("daemon exited before listening (%v); see %s", err, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not listen within 30s; see %s", logPath)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuNS is the CPU time the daemon's threads have run for, summed from
// /proc/<pid>/task/*/schedstat (nanoseconds, unlike the tick-granular
// utime/stime; Go keeps its threads, so none drop out of the sum).
func (d *daemon) cpuNS() int64 {
	stats, _ := filepath.Glob(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "task", "*", "schedstat"))
	var total int64
	for _, p := range stats {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	return total
}

// stop asks the daemon to drain (SIGTERM) and kills it if it has not exited
// within ten seconds; it returns once the process is gone.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
	}
	d.log.Close()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// freePort reserves a loopback port for a daemon whose address must be known
// before it starts (cluster peers name each other on the command line).
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
