package swmpls

import (
	"fmt"
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

var ilmKinds = []ILMKind{ILMMap, ILMLinear, ILMIndexed}

// TestILMBackendsForwardIdentically drives all three ILM backends
// through the same LSP and demands identical results and packet
// mutations at every hop — the backend changes lookup cost, never
// semantics.
func TestILMBackendsForwardIdentically(t *testing.T) {
	build := func(kind ILMKind) *Forwarder {
		f := New(WithILM(kind))
		mustMapFEC(t, f, packet.AddrFrom(10, 0, 0, 0), 8, NHLFE{NextHop: "in", Op: label.OpPush, PushLabels: []label.Label{100}, CoS: 3})
		mustMapLabel(t, f, 100, NHLFE{NextHop: "mid", Op: label.OpSwap, PushLabels: []label.Label{200}})
		mustMapLabel(t, f, 200, NHLFE{NextHop: "tun", Op: label.OpPush, PushLabels: []label.Label{300}})
		mustMapLabel(t, f, 300, NHLFE{NextHop: "pop", Op: label.OpPop})
		mustMapLabel(t, f, 201, NHLFE{Op: label.OpPop})
		return f
	}
	fwds := make(map[ILMKind]*Forwarder, len(ilmKinds))
	pkts := make(map[ILMKind]*packet.Packet, len(ilmKinds))
	for _, k := range ilmKinds {
		fwds[k] = build(k)
		pkts[k] = packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 1, 2, 3), 16, nil)
	}
	for hop := 0; hop < 8; hop++ {
		ref := fwds[ILMMap].Forward(pkts[ILMMap])
		for _, k := range ilmKinds[1:] {
			got := fwds[k].Forward(pkts[k])
			if got != ref {
				t.Fatalf("hop %d: %v result = %+v, map = %+v", hop, k, got, ref)
			}
			mp, ip := pkts[ILMMap], pkts[k]
			if mp.Header.TTL != ip.Header.TTL || mp.Stack.Depth() != ip.Stack.Depth() {
				t.Fatalf("hop %d: %v packet diverged: ttl %d/%d depth %d/%d",
					hop, k, mp.Header.TTL, ip.Header.TTL, mp.Stack.Depth(), ip.Stack.Depth())
			}
		}
		if ref.Action != Forward {
			break
		}
	}
}

// TestILMReplaceSemantics pins replace-on-insert for every backend: the
// information-base kinds must not let a first-match store shadow an
// updated binding.
func TestILMReplaceSemantics(t *testing.T) {
	for _, k := range ilmKinds {
		t.Run(k.String(), func(t *testing.T) {
			f := New(WithILM(k))
			mustMapLabel(t, f, 50, NHLFE{NextHop: "old", Op: label.OpSwap, PushLabels: []label.Label{60}})
			mustMapLabel(t, f, 50, NHLFE{NextHop: "new", Op: label.OpSwap, PushLabels: []label.Label{61}})
			if f.ILMSize() != 1 {
				t.Fatalf("ILMSize = %d after replace, want 1", f.ILMSize())
			}
			n, ok := f.LookupILM(50)
			if !ok || n.NextHop != "new" || n.PushLabels[0] != 61 {
				t.Fatalf("LookupILM(50) = %+v, %v", n, ok)
			}
			f.UnmapLabel(50)
			if _, ok := f.LookupILM(50); ok || f.ILMSize() != 0 {
				t.Fatal("binding survives UnmapLabel")
			}
		})
	}
}

// TestILMInfobaseCapacity pins that the information-base backends
// inherit the paper's 1024-entry level and surface ErrLevelFull, while
// the map backend keeps growing.
func TestILMInfobaseCapacity(t *testing.T) {
	for _, k := range []ILMKind{ILMLinear, ILMIndexed} {
		t.Run(k.String(), func(t *testing.T) {
			f := New(WithILM(k))
			n := NHLFE{Op: label.OpPop}
			for i := 0; i < infobase.EntriesPerLevel; i++ {
				if err := f.MapLabel(label.Label(16+i), n); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := f.MapLabel(label.Label(16+infobase.EntriesPerLevel), n); err == nil {
				t.Fatal("insert past level capacity succeeded")
			}
			// Replacing an existing binding must still work at capacity.
			if err := f.MapLabel(16, NHLFE{NextHop: "x", Op: label.OpPop}); err != nil {
				t.Fatalf("replace at capacity: %v", err)
			}
		})
	}
}

// TestCloneKeepsILMKind: RCU snapshots must not silently fall back to
// the map backend.
func TestCloneKeepsILMKind(t *testing.T) {
	for _, k := range ilmKinds {
		t.Run(k.String(), func(t *testing.T) {
			f := New(WithILM(k))
			mustMapLabel(t, f, 70, NHLFE{NextHop: "a", Op: label.OpPop})
			c := f.Clone()
			if c.ILMKind() != k {
				t.Fatalf("clone kind = %v, want %v", c.ILMKind(), k)
			}
			if _, ok := c.LookupILM(70); !ok {
				t.Fatal("clone lost binding")
			}
			// Independence both ways.
			mustMapLabel(t, c, 71, NHLFE{NextHop: "b", Op: label.OpPop})
			if _, ok := f.LookupILM(71); ok {
				t.Fatal("clone write visible in original")
			}
			f.UnmapLabel(70)
			if _, ok := c.LookupILM(70); !ok {
				t.Fatal("original removal visible in clone")
			}
		})
	}
}

// TestResolveApplySplitMatchesForward: for hits and misses alike, the
// Resolve/ApplyResolved/DropUnresolved decomposition must reproduce
// Forward byte for byte — the contract the dataplane flow cache leans
// on.
func TestResolveApplySplitMatchesForward(t *testing.T) {
	build := func() *Forwarder {
		f := New()
		mustMapFEC(t, f, packet.AddrFrom(10, 0, 0, 0), 8, NHLFE{NextHop: "in", Op: label.OpPush, PushLabels: []label.Label{100}})
		mustMapLabel(t, f, 100, NHLFE{NextHop: "mid", Op: label.OpSwap, PushLabels: []label.Label{200}})
		return f
	}
	mk := func(dst packet.Addr, lbls ...label.Label) *packet.Packet {
		p := packet.New(packet.AddrFrom(192, 0, 2, 9), dst, 16, nil)
		for _, l := range lbls {
			if err := p.Stack.Push(label.Entry{Label: l, TTL: 16}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	cases := []func() *packet.Packet{
		func() *packet.Packet { return mk(packet.AddrFrom(10, 1, 1, 1)) },      // FTN hit
		func() *packet.Packet { return mk(packet.AddrFrom(172, 16, 0, 1)) },    // FTN miss
		func() *packet.Packet { return mk(packet.AddrFrom(10, 1, 1, 1), 100) }, // ILM hit
		func() *packet.Packet { return mk(packet.AddrFrom(10, 1, 1, 1), 999) }, // ILM miss
	}
	for i, mkp := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			fa, fb := build(), build()
			pa, pb := mkp(), mkp()
			want := fa.Forward(pa)
			n, ok := fb.Resolve(pb)
			var got Result
			if ok {
				got = fb.ApplyResolved(pb, n)
			} else {
				got = fb.DropUnresolved(pb)
			}
			if got != want {
				t.Fatalf("split result = %+v, Forward = %+v", got, want)
			}
			if pa.Header.TTL != pb.Header.TTL || pa.Stack.Depth() != pb.Stack.Depth() {
				t.Fatalf("packet diverged: ttl %d/%d depth %d/%d",
					pa.Header.TTL, pb.Header.TTL, pa.Stack.Depth(), pb.Stack.Depth())
			}
		})
	}
}

// TestForwarderSetTelemetry: the unified sink must feed both the drop
// counters and the trace ring from plain Forward calls.
func TestForwarderSetTelemetry(t *testing.T) {
	f := New()
	mustMapLabel(t, f, 100, NHLFE{NextHop: "mid", Op: label.OpSwap, PushLabels: []label.Label{200}})
	drops := new(telemetry.DropCounters)
	ring := telemetry.NewRing(8)
	f.SetTelemetry(telemetry.Sink{Drops: drops, Trace: ring, Node: "lsr1"})

	p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 0, 0, 1), 16, nil)
	if err := p.Stack.Push(label.Entry{Label: 100, TTL: 16}); err != nil {
		t.Fatal(err)
	}
	if res := f.Forward(p); res.Action != Forward {
		t.Fatalf("swap hop: %+v", res)
	}
	miss := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(172, 16, 0, 1), 16, nil)
	if res := f.Forward(miss); res.Drop != DropNoRoute {
		t.Fatalf("miss: %+v", res)
	}
	if got := drops.Total(); got != 1 {
		t.Errorf("drop total = %d, want 1", got)
	}
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("trace events = %d, want 2", len(evs))
	}
	if evs[0].Node != "lsr1" || evs[0].Op != telemetry.TraceSwap || evs[0].Label != 100 {
		t.Errorf("op event = %+v", evs[0])
	}
	if evs[1].Op != telemetry.TraceDiscard || evs[1].Reason != telemetry.ReasonNoRoute {
		t.Errorf("discard event = %+v", evs[1])
	}

	// Detach: no further events, no panic.
	f.SetTelemetry(telemetry.Sink{})
	f.Forward(packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(172, 16, 0, 1), 16, nil))
	if got := drops.Total(); got != 1 {
		t.Errorf("drop total after detach = %d, want 1", got)
	}
}
