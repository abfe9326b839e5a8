package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans from the benchmark's own files, around the
// calls into each layer — nothing inside internal/ knows it exists.
// Spans stay in memory and are written when the run ends. One burst in
// sampleEvery is recorded as spans; the seam wrappers additionally keep
// cheap running totals over every call, which is where the per-packet
// figures come from.

// sampleEvery is the span sampling period in bursts.
const sampleEvery = 64

// span is one traced interval. Spans of one burst share Op; Parent is
// the id (1-based index) of the span that caused this one, 0 for roots.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open maps (name, op) to the latest open-or-finished span of that
	// name for the burst, so a child recorded on another goroutine can
	// find its parent by the burst id alone.
	open map[spanKey]int32
}

type spanKey struct {
	name string
	op   uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[spanKey]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall instant to the tracer's clock.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

// sampled reports whether burst op is one of the recorded ones.
func sampled(op uint64) bool { return op%sampleEvery == 0 }

// begin opens a span whose parent is the latest span named parentName
// in the same burst ("" for a root) and returns its id.
func (t *tracer) begin(name, parentName string, op uint64, start int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent int32
	if parentName != "" {
		parent = t.open[spanKey{parentName, op}]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Op: op})
	id := int32(len(t.spans))
	t.open[spanKey{name, op}] = id
	return id
}

func (t *tracer) end(id int32, end int64) {
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// record adds a finished span in one call.
func (t *tracer) record(name, parentName string, op uint64, start, end int64) {
	t.end(t.begin(name, parentName, op, start), end)
}

// selfTimes returns, per span name, total duration, total self time
// (duration minus the part child spans cover) and span count.
func (t *tracer) selfTimes() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > s.Start {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		tot := out[s.Name]
		d := s.End - s.Start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		tot.TotalNs += d
		tot.SelfNs += self
		tot.Count++
		out[s.Name] = tot
	}
	return out
}

type spanTotals struct {
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	Count   int   `json:"count"`
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Machine     machineInfo           `json:"machine"`
	SampleEvery int                   `json:"sample_every_bursts"`
	Totals      map[string]spanTotals `json:"span_totals"`
	Layer       map[string]float64    `json:"per_layer"`
	Notes       []string              `json:"notes,omitempty"`
	Spans       []span                `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, layer map[string]float64, notes []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	tf := traceFile{
		Workload: workload, Seed: seed, Machine: machine(), SampleEvery: sampleEvery,
		Totals: t.selfTimes(), Layer: layer, Notes: notes, Spans: spans,
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

// seamTotal is the running total a seam wrapper keeps over every call
// it sees (not only sampled ones): nanoseconds and packets.
type seamTotal struct {
	ns   atomic.Int64
	pkts atomic.Int64
}

func (s *seamTotal) add(ns int64, pkts int) {
	s.ns.Add(ns)
	s.pkts.Add(int64(pkts))
}

func (s *seamTotal) nsPerPkt() float64 {
	p := s.pkts.Load()
	if p == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(p)
}
