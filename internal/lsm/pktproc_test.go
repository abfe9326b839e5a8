package lsm

import (
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
)

// writePairPP programs the information base through the command port
// while the packet processor is idle — the routing software path.
func writePairPP(t *testing.T, p *PktProc, lv infobase.Level, pair infobase.Pair) {
	t.Helper()
	if _, err := p.Bench().WritePair(lv, pair); err != nil {
		t.Fatal(err)
	}
}

func TestPktProcSwapPacket(t *testing.T) {
	p := NewPktProc(LSR, Options{})
	writePairPP(t, p, infobase.Level2, infobase.Pair{Index: 42, NewLabel: 777, Op: label.OpSwap})

	in := []label.Entry{{Label: 42, CoS: 3, TTL: 64}}
	out, discarded, cycles, err := p.Process(in, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if discarded {
		t.Fatal("swap packet discarded")
	}
	top, err := out.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top.Label != 777 || top.TTL != 63 || top.CoS != 3 || !top.Bottom {
		t.Errorf("outgoing top = %v, want lbl=777 ttl=63 cos=3 S=1", top)
	}
	// Start latch (1) + load (3) + update (search pos 1 + swap tail) +
	// the update->pop handoff cycle + unload (3).
	want := 1 + 3*1 + SearchCycles(1) + CyclesSwapFromIB + 1 + 3*1
	if cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestPktProcIngressPush(t *testing.T) {
	p := NewPktProc(LER, Options{})
	const dst = 0x0a000001
	writePairPP(t, p, infobase.Level1, infobase.Pair{Index: dst, NewLabel: 100, Op: label.OpPush})

	out, discarded, _, err := p.Process(nil, dst, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if discarded || out.Depth() != 1 {
		t.Fatalf("ingress result: discard=%v depth=%d", discarded, out.Depth())
	}
	top, _ := out.Top()
	if top.Label != 100 || top.TTL != 63 || top.CoS != 5 {
		t.Errorf("pushed entry = %v", top)
	}
}

func TestPktProcTunnelPushDepth2(t *testing.T) {
	p := NewPktProc(LSR, Options{})
	writePairPP(t, p, infobase.Level2, infobase.Pair{Index: 42, NewLabel: 500, Op: label.OpPush})

	in := []label.Entry{{Label: 42, CoS: 1, TTL: 32}}
	out, discarded, _, err := p.Process(in, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if discarded || out.Depth() != 2 {
		t.Fatalf("tunnel push: discard=%v stack=%v", discarded, out)
	}
	top, _ := out.Top()
	below, _ := out.At(0)
	if top.Label != 500 || below.Label != 42 || top.TTL != 31 || below.TTL != 31 {
		t.Errorf("stack after tunnel push: %v", out)
	}
	if !out.Consistent() {
		t.Errorf("S bits wrong after hardware unload: %v", out)
	}
}

func TestPktProcDiscard(t *testing.T) {
	p := NewPktProc(LSR, Options{})
	in := []label.Entry{{Label: 99, TTL: 64}} // no binding
	out, discarded, _, err := p.Process(in, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !discarded {
		t.Fatal("miss not discarded")
	}
	if out.Depth() != 0 {
		t.Errorf("discarded packet kept a stack: %v", out)
	}
}

func TestPktProcBackToBackPackets(t *testing.T) {
	p := NewPktProc(LSR, Options{})
	writePairPP(t, p, infobase.Level2, infobase.Pair{Index: 42, NewLabel: 43, Op: label.OpSwap})
	writePairPP(t, p, infobase.Level2, infobase.Pair{Index: 43, NewLabel: 42, Op: label.OpSwap})

	lbl := label.Label(42)
	for i := 0; i < 10; i++ {
		out, discarded, _, err := p.Process([]label.Entry{{Label: lbl, TTL: 64}}, 0, 0, 0)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if discarded {
			t.Fatalf("packet %d discarded", i)
		}
		top, _ := out.Top()
		want := label.Label(43)
		if lbl == 43 {
			want = 42
		}
		if top.Label != want {
			t.Fatalf("packet %d: label %d, want %d", i, top.Label, want)
		}
		lbl = want
	}
}

func TestPktProcMatchesDeviceModelCycles(t *testing.T) {
	// The RTL packet processor's load+update portion must cost exactly
	// what the device-level model charges (3 per entry + update), for
	// every stack depth.
	for depth := 1; depth <= label.MaxDepth; depth++ {
		p := NewPktProc(LSR, Options{})
		writePairPP(t, p, infobase.LevelForDepth(depth), infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpSwap})
		in := make([]label.Entry, depth)
		for i := range in {
			in[i] = label.Entry{Label: label.Label(1000 + i), TTL: 64}
		}
		in[depth-1].Label = 42
		out, discarded, cycles, err := p.Process(in, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if discarded {
			t.Fatalf("depth %d discarded", depth)
		}
		// Start latch (1) + load (3/entry) + update + handoff (1) +
		// unload (3/entry).
		want := 1 + 3*depth + SearchCycles(1) + CyclesSwapFromIB + 1 + 3*out.Depth()
		if cycles != want {
			t.Errorf("depth %d: cycles = %d, want %d", depth, cycles, want)
		}
	}
}

// TestPktProcProcessAllocatesNothing pins the per-packet path of the
// simulator: stepping a packet through allocates nothing — no closure,
// no name lookup, no scratch — and the stack it returns is a value the
// caller owns, so a forwarded packet costs no more than a discarded one.
func TestPktProcProcessAllocatesNothing(t *testing.T) {
	p := NewPktProc(LSR, Options{})
	writePairPP(t, p, infobase.Level2, infobase.Pair{Index: 42, NewLabel: 42, Op: label.OpSwap})

	for name, in := range map[string][]label.Entry{
		"discarded": {{Label: 99, TTL: 64}},
		"forwarded": {{Label: 42, TTL: 64}},
	} {
		var out label.Stack
		if n := testing.AllocsPerRun(50, func() { out, _, _, _ = p.Process(in, 0, 0, 0) }); n != 0 {
			t.Errorf("Process of a %s packet allocates %v times, want 0", name, n)
		}
		if name == "forwarded" && out.Depth() != 1 {
			t.Errorf("forwarded packet: stack %v, want one entry", out)
		}
	}
}
