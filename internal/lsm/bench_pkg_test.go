package lsm

import (
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
)

// BenchmarkRTLSimulationThroughput measures how many device clock cycles
// per second the host can simulate on the full label stack modifier — the
// cost of cycle accuracy.
func BenchmarkRTLSimulationThroughput(b *testing.B) {
	bench := NewBench(LSR)
	_, _ = bench.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpSwap})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.HW.Sim.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "device-cycles/s")
}

// BenchmarkBehavioralUpdate measures the functional model the network
// simulator runs per packet.
func BenchmarkBehavioralUpdate(b *testing.B) {
	m := NewBehavioral(LSR)
	_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 43, Op: label.OpSwap})
	_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 43, NewLabel: 42, Op: label.OpSwap})
	_ = m.UserPush(label.Entry{Label: 42, TTL: 255})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := m.Update(UpdateRequest{})
		if res.Discarded() {
			b.StopTimer()
			m.Reset()
			_ = m.UserPush(label.Entry{Label: 42, TTL: 255})
			b.StartTimer()
		}
	}
}

// BenchmarkHWUpdateSwap measures a full update operation through the
// RTL model (search position 1).
func BenchmarkHWUpdateSwap(b *testing.B) {
	bench := NewBench(LSR)
	_, _ = bench.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 43, Op: label.OpSwap})
	_, _ = bench.WritePair(infobase.Level2, infobase.Pair{Index: 43, NewLabel: 42, Op: label.OpSwap})
	_, _ = bench.UserPush(label.Entry{Label: 42, TTL: 255})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Update(UpdateRequest{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Discarded() {
			b.StopTimer()
			if _, err := bench.UserPush(label.Entry{Label: 42, TTL: 255}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkPktProcProcess tracks the simulation kernel's speed on the
// design's hot path without the full benchmark harness: one packet
// through the hardware packet interfaces with every level at 1024
// entries and the hit half way down, so almost every cycle is the
// three-state search loop.
func BenchmarkPktProcProcess(b *testing.B) {
	p := NewPktProc(LSR, Options{})
	bench := p.Bench()
	for lv := infobase.Level1; lv <= infobase.Level3; lv++ {
		for i := 0; i < infobase.EntriesPerLevel; i++ {
			pair := infobase.Pair{Index: infobase.Key(2000 + i), NewLabel: label.Label(100 + i), Op: label.OpSwap}
			if _, err := bench.WritePair(lv, pair); err != nil {
				b.Fatal(err)
			}
		}
	}
	in := []label.Entry{{Label: 2000 + 539, TTL: 64}}
	var cycles int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, discarded, c, err := p.Process(in, 0, 0, 0)
		if err != nil || discarded {
			b.Fatalf("packet %d: discarded=%v err=%v", i, discarded, err)
		}
		cycles += c
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}
