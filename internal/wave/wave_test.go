package wave

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"embeddedmpls/internal/rtl"
)

// buildCounterBench wires a 4-bit counter with a done pulse at value 5 and
// returns the simulator plus a tracer over its signals.
func buildCounterBench(t *testing.T) (*rtl.Simulator, *Tracer) {
	t.Helper()
	sim := rtl.New()
	q := sim.Signal("count", 4)
	en := sim.Signal("en", 1)
	done := sim.Signal("done", 1)
	rtl.NewCounter(sim, q, en, nil, nil, nil, nil)
	sim.Comb(func() { done.SetBool(q.Get() == 5) }, rtl.Sigs{q}, rtl.Sigs{done})
	en.SetBool(true)
	return sim, NewTracer(sim, q, en, done)
}

func TestTracerRecordsEveryCycle(t *testing.T) {
	sim, tr := buildCounterBench(t)
	sim.Run(8)
	if tr.Len() != 8 {
		t.Fatalf("recorded %d rows, want 8", tr.Len())
	}
	v, err := tr.Value("count", 3)
	if err != nil || v != 4 {
		t.Errorf("count at row 3 = %d (%v), want 4", v, err)
	}
	if _, err := tr.Value("missing", 0); err == nil {
		t.Error("Value of untraced signal should fail")
	}
	if _, err := tr.Value("count", 99); err == nil {
		t.Error("Value out of range should fail")
	}
}

func TestFirstCycleAndCount(t *testing.T) {
	sim, tr := buildCounterBench(t)
	sim.Run(10)
	cyc, ok := tr.FirstCycle("done", func(v uint64) bool { return v == 1 })
	if !ok || cyc != 5 {
		t.Errorf("done first high at cycle %d (ok=%v), want 5", cyc, ok)
	}
	if n := tr.CountCycles("done", func(v uint64) bool { return v == 1 }); n != 1 {
		t.Errorf("done high for %d cycles, want 1 (a single pulse)", n)
	}
	if _, ok := tr.FirstCycle("missing", func(uint64) bool { return true }); ok {
		t.Error("FirstCycle on untraced signal should report not found")
	}
}

func TestChangesCompressesRuns(t *testing.T) {
	sim, tr := buildCounterBench(t)
	sim.Run(4)
	chs := tr.Changes("en")
	if len(chs) != 1 || chs[0].Value != 1 {
		t.Errorf("en changes = %v, want a single initial value 1", chs)
	}
	chs = tr.Changes("count")
	if len(chs) != 4 {
		t.Errorf("count changed %d times, want 4", len(chs))
	}
	if tr.Changes("missing") != nil {
		t.Error("Changes on untraced signal should be nil")
	}
}

func TestWriteTableSkipsRepeatedRows(t *testing.T) {
	sim := rtl.New()
	s := sim.Signal("steady", 8)
	s.Set(7)
	tr := NewTracer(sim, s)
	sim.Run(5)
	var buf bytes.Buffer
	if err := tr.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 { // header + single data row
		t.Errorf("table has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "steady") || !strings.Contains(lines[1], "7") {
		t.Errorf("unexpected table:\n%s", buf.String())
	}
}

func TestWriteWaveShapes(t *testing.T) {
	sim, tr := buildCounterBench(t)
	sim.Run(7)
	var buf bytes.Buffer
	if err := tr.WriteWave(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "en") || !strings.Contains(out, "#######") {
		t.Errorf("expected a solid-high waveform for en:\n%s", out)
	}
	if !strings.Contains(out, "done") || !strings.Contains(out, "____#_") {
		t.Errorf("expected a single done pulse at cycle 5:\n%s", out)
	}
	if !strings.Contains(out, "->2@2") {
		t.Errorf("expected multi-bit change annotations for count:\n%s", out)
	}
}

func TestWriteVCD(t *testing.T) {
	sim, tr := buildCounterBench(t)
	sim.Run(3)
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf, "bench", time.Time{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1 ns $end",
		"$scope module bench $end",
		"$var wire 4 ! count $end",
		"$var wire 1 \" en $end",
		"$enddefinitions $end",
		"#1\n",
		"b1 !",
		"1\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// Cycle 2 changes only the counter, so en must not be re-dumped.
	after2 := out[strings.Index(out, "#2"):]
	block2 := after2[:strings.Index(after2, "#3")]
	if strings.Contains(block2, "\"") {
		t.Errorf("VCD re-dumped unchanged en at cycle 2:\n%s", block2)
	}
}

func TestVCDIDsUniqueForManySignals(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at index %d", id, i)
		}
		seen[id] = true
	}
}
