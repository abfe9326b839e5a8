package main

import (
	"fmt"
	"syscall"
	"time"
)

// The two measured phases every data-plane workload shares, written
// once: a harness supplies how to offer a burst, how to wait for what
// it offered, and how many operations have completed correctly.

// loop is a harness as the phase drivers see it.
type loop struct {
	epoch time.Time
	// done is how many operations have completed correctly so far.
	done func() int64
	// offer sends the next burst. In the saturation phase (due == 0) it
	// blocks while the workload's window is full; in the fixed-rate
	// phase it stamps the burst with due (ns since epoch) and returns.
	offer func(due int64) error
	// settle waits until everything offered has completed.
	settle func() error
	// record starts (or, with nil, stops) latency recording at the sink.
	record func(*latWindows)
}

// phase is what one measured phase yields.
type phase struct {
	ops     int64 // correct operations completed
	opsRate float64
	metered
	// fixed-rate only
	lat        *latWindows
	latePct99  float64 // us
	offeredPPS float64
	period     time.Duration
}

// rateMarks records (elapsed, completed) pairs at one-second marks of a
// phase; the ops/s figure is the median rate between consecutive marks.
type rateMarks struct {
	t    []time.Duration
	done []int64
}

func (r *rateMarks) mark(t time.Duration, done int64) {
	r.t = append(r.t, t)
	r.done = append(r.done, done)
}

func (r *rateMarks) medianRate() float64 {
	var rates []float64
	for i := 1; i < len(r.t); i++ {
		if dt := (r.t[i] - r.t[i-1]).Seconds(); dt > 0 {
			rates = append(rates, float64(r.done[i]-r.done[i-1])/dt)
		}
	}
	return median(rates)
}

// saturate is the saturation phase (closed loop): bursts are offered as
// fast as the workload's window admits them for d, then the tail is
// waited for.
func saturate(l loop, d time.Duration) (phase, error) {
	var marks rateMarks
	done0 := l.done()
	m := startMeter()
	t0 := time.Now()
	marks.mark(0, 0)
	next := time.Second
	for {
		el := time.Since(t0)
		if el >= next {
			marks.mark(el, l.done()-done0)
			next += time.Second
		}
		if el >= d {
			break
		}
		if err := l.offer(0); err != nil {
			return phase{}, err
		}
	}
	if err := l.settle(); err != nil {
		return phase{}, err
	}
	ph := phase{metered: m.stop(), opsRate: marks.medianRate()}
	ph.ops = l.done() - done0
	return ph, nil
}

// waitUntil blocks until due (ns since epoch) and reports how late it
// returned. It sleeps in the kernel (nanosleep) rather than in the Go
// runtime: while every P is idle the runtime waits in epoll with
// millisecond resolution, so time.Sleep overshoots sub-millisecond
// gaps by up to a whole burst period, and a yield loop starves the
// network poller instead.
func waitUntil(epoch time.Time, due int64) int64 {
	for {
		now := int64(time.Since(epoch))
		if now >= due {
			return now - due
		}
		ts := syscall.NsecToTimespec(due - now)
		_ = syscall.Nanosleep(&ts, nil) // an early return is retried by the loop
	}
}

// fixedRate is the fixed-rate phase (open loop): bursts of perBurst
// operations leave on a schedule giving pps whatever the system does.
// Each operation carries its due time and latency is taken at the sink
// from that, so a stall is charged to the operations it delayed. How
// late the generator ran is reported.
func fixedRate(l loop, d time.Duration, pps, perBurst int) (phase, error) {
	period := time.Duration(float64(time.Second) * float64(perBurst) / float64(pps))
	bursts := int(d / period)
	late := make([]float64, 0, bursts)
	done0 := l.done()
	start := int64(time.Since(l.epoch)) + int64(time.Millisecond)
	lat := newLatWindows(start, int((d+time.Second-1)/time.Second), pps+pps/10)
	l.record(lat)
	defer l.record(nil)
	m := startMeter()
	for i := 0; i < bursts; i++ {
		due := start + int64(i)*int64(period)
		late = append(late, float64(waitUntil(l.epoch, due))/1e3)
		if err := l.offer(due); err != nil {
			return phase{}, fmt.Errorf("burst %d of %d: %w", i, bursts, err)
		}
	}
	elapsed := time.Duration(int64(time.Since(l.epoch)) - start)
	if err := l.settle(); err != nil {
		return phase{}, err
	}
	ph := phase{metered: m.stop(), lat: lat, period: period}
	ph.ops = l.done() - done0
	ph.offeredPPS = float64(bursts*perBurst) / elapsed.Seconds()
	ph.latePct99 = percentile(sortedCopy(late), 0.99)
	return ph, nil
}

// timeSetups sets a workload up at least setupReps times, and for at
// least setupMinTotal in all, and returns how long each repetition
// took. A set-up of a few tens of milliseconds (control_ring) is thus
// repeated often enough for the median to sit among warm repetitions
// instead of straddling the cold first ones. The first repetition is
// timed from process start.
func timeSetups(build func() error) ([]float64, error) {
	var took []float64
	for i := 0; i < setupReps || time.Since(procStart) < setupMinTotal; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if err := build(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}
