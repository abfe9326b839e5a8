package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return percentile(sortedCopy(vs), 0.5)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver uses for the
// spread of a metric: positions (len+1)*k/4, interpolated, clamped to
// the sample.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure bounds are set from and the driver checks.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// latWindows collects per-operation latencies into fixed one-second
// windows keyed by the operation's due time, so percentiles can be
// taken per window and the median window reported: one scheduler
// hiccup then moves one window, not the run's figure. Samples are
// nanoseconds in int32 (2.1 s ceiling, clamped) to keep peak RSS small
// and fixed. Safe for one writer per window slice; callers that write
// from several goroutines serialise through add's caller.
type latWindows struct {
	start int64 // of window 0, on the clock the at arguments use
	win   [][]int32
}

func newLatWindows(start int64, windows, perWindow int) *latWindows {
	l := &latWindows{start: start, win: make([][]int32, windows)}
	for i := range l.win {
		l.win[i] = make([]int32, 0, perWindow)
	}
	return l
}

// add records a latency of ns for an operation due at at.
func (l *latWindows) add(at, ns int64) {
	window := int((at - l.start) / int64(time.Second))
	if window < 0 || window >= len(l.win) {
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxInt32 {
		ns = math.MaxInt32
	}
	l.win[window] = append(l.win[window], int32(ns))
}

// summary returns the median across windows of each window's p50 and
// p99 in microseconds, plus the total sample count.
func (l *latWindows) summary() (p50, p99 float64, samples int) {
	var p50s, p99s []float64
	for _, w := range l.win {
		if len(w) == 0 {
			continue
		}
		samples += len(w)
		s := make([]float64, len(w))
		for i, v := range w {
			s[i] = float64(v)
		}
		sort.Float64s(s)
		p50s = append(p50s, percentile(s, 0.50)/1e3)
		p99s = append(p99s, percentile(s, 0.99)/1e3)
	}
	return median(p50s), median(p99s), samples
}
