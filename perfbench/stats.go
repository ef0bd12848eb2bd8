package main

import (
	"math"
	"sort"
	"time"
)

// samples is a latency sample set in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// pct returns the p-th percentile (0 < p < 100) by linear interpolation
// between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") use. An empty set yields 0.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// enoughFor reports whether the set has at least ten samples beyond the p-th
// percentile, the least a named percentile needs to mean anything.
func (s samples) enoughFor(p float64) bool {
	return float64(len(s))*(1-p/100) >= 10
}

// series is a latency sample set stamped with completion times, so that a
// percentile can be taken over chosen stretches of the run.
type series struct {
	at []time.Time
	ms samples
}

func (s *series) add(d time.Duration) {
	s.at = append(s.at, time.Now())
	s.ms.add(d)
}

// within is the samples that completed inside spans.
func (s series) within(spans []span) samples {
	var out samples
	for i, t := range s.at {
		if covered(spans, t) {
			out = append(out, s.ms[i])
		}
	}
	return out
}

// stamps are the completion times of a load's operations.
type stamps []time.Time

func (s *stamps) add() { *s = append(*s, time.Now()) }

// rate is the operations per second completed inside spans.
func (s stamps) rate(spans []span) float64 {
	var n int
	for _, t := range s {
		if covered(spans, t) {
			n++
		}
	}
	var d time.Duration
	for _, sp := range spans {
		d += sp.to.Sub(sp.from)
	}
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// span is one stretch of a timed load with the machine's CPU ticks over it:
// all of them, and those the hypervisor stole for other guests.
type span struct {
	from, to      time.Time
	stolen, total uint64
}

func (sp span) steal() float64 {
	if sp.total == 0 {
		return 0
	}
	return float64(sp.stolen) / float64(sp.total)
}

func covered(spans []span, t time.Time) bool {
	for _, sp := range spans {
		if !t.Before(sp.from) && !t.After(sp.to) {
			return true
		}
	}
	return false
}

// timeSlices is how many equal spans a timed load is cut into.
const timeSlices = 10

// calm is the spans whose steal is at most the median span's: the half of
// the load (all of it on an undisturbed host) in which the hypervisor took
// the least CPU from this machine. The end-to-end figures are taken over
// these spans. They are chosen by a measurement of the host, never by the
// latencies themselves, so a slowdown of the program shows in them as fully
// as in the whole run, while a host stall that covers less than half the
// load does not.
func calm(spans []span) []span {
	steal := make([]float64, len(spans))
	for i, sp := range spans {
		steal[i] = sp.steal()
	}
	limit := median(steal)
	var out []span
	for _, sp := range spans {
		if sp.steal() <= limit {
			out = append(out, sp)
		}
	}
	return out
}

// stealWatch cuts a timed load into spans, reading the machine-wide steal
// and total CPU ticks from /proc/stat at each boundary.
type stealWatch struct {
	spans []span
	stop  chan struct{}
	done  chan struct{}
}

// watchSteal starts cutting spans of length period; the first starts now.
func watchSteal(period time.Duration) *stealWatch {
	w := &stealWatch{stop: make(chan struct{}), done: make(chan struct{})}
	t0 := time.Now()
	s0, n0 := cpuTicks()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			stopped := false
			select {
			case <-tick.C:
			case <-w.stop:
				stopped = true
			}
			t1 := time.Now()
			s1, n1 := cpuTicks()
			sp := span{from: t0, to: t1, stolen: s1 - s0, total: n1 - n0}
			// A closed loop overruns its duration by the operations still
			// in flight: a short last span joins the one before it.
			if stopped && len(w.spans) > 0 && t1.Sub(t0) < period/2 {
				last := &w.spans[len(w.spans)-1]
				last.to = t1
				last.stolen += sp.stolen
				last.total += sp.total
			} else {
				w.spans = append(w.spans, sp)
			}
			t0, s0, n0 = t1, s1, n1
			if stopped {
				return
			}
		}
	}()
	return w
}

// end takes the last reading and returns every span.
func (w *stealWatch) end() []span {
	close(w.stop)
	<-w.done
	return w.spans
}

// median of plain values (setup repetitions and the like).
func median(v []float64) float64 { return samples(v).pct(50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
