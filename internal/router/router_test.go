package router

import (
	"testing"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/device"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

var dst = packet.AddrFrom(10, 0, 0, 9)

// lineNet builds a 4-node line a-b-c-d. hardware selects the data plane
// everywhere (edges as LERs, middle as LSRs).
func lineNet(t *testing.T, hardware bool) *Network {
	t.Helper()
	nodes := []NodeSpec{
		{Name: "a", Hardware: hardware, RouterType: lsm.LER},
		{Name: "b", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "c", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "d", Hardware: hardware, RouterType: lsm.LER},
	}
	links := []LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.001},
		{A: "b", B: "c", RateBPS: 10e6, Delay: 0.001},
		{A: "c", B: "d", RateBPS: 10e6, Delay: 0.001},
	}
	n, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPacketFollowsLSPBothPlanes(t *testing.T) {
	for _, hw := range []bool{false, true} {
		name := "software"
		if hw {
			name = "hardware"
		}
		t.Run(name, func(t *testing.T) {
			n := lineNet(t, hw)
			installLSP(t, n, dst, []string{"a", "b", "c", "d"}, 100, false)
			var delivered []*packet.Packet
			n.Router("d").OnDeliver = func(p *packet.Packet) { delivered = append(delivered, p) }

			p := packet.New(packet.AddrFrom(192, 0, 2, 1), dst, 64, []byte("hello"))
			n.Router("a").Inject(p)
			n.Sim.Run()

			if len(delivered) != 1 {
				t.Fatalf("delivered %d packets", len(delivered))
			}
			got := delivered[0]
			if got.Labelled() {
				t.Error("delivered packet still labelled")
			}
			if got.Header.TTL != 60 {
				t.Errorf("TTL = %d, want 60", got.Header.TTL)
			}
			if string(got.Payload) != "hello" {
				t.Errorf("payload corrupted: %q", got.Payload)
			}
			// Transit routers forwarded exactly one packet each.
			for _, r := range []string{"a", "b", "c"} {
				if n.Router(r).Stats.Forwarded.Events != 1 {
					t.Errorf("%s forwarded %d", r, n.Router(r).Stats.Forwarded.Events)
				}
			}
		})
	}
}

func TestHardwareFasterThanSoftwareEndToEnd(t *testing.T) {
	latency := func(hw bool) netsim.Time {
		n := lineNet(t, hw)
		installLSP(t, n, dst, []string{"a", "b", "c", "d"}, 100, false)
		var at netsim.Time = -1
		n.Router("d").OnDeliver = func(*packet.Packet) { at = n.Sim.Now() }
		n.Router("a").Inject(packet.New(1, dst, 64, make([]byte, 100)))
		n.Sim.Run()
		if at < 0 {
			t.Fatal("packet not delivered")
		}
		return at
	}
	sw, hw := latency(false), latency(true)
	if hw >= sw {
		t.Errorf("hardware latency %.6fs not below software %.6fs", hw, sw)
	}
	// The per-hop gap must be roughly the software cost minus the
	// sub-microsecond hardware cost: 4 routers x ~50us.
	if gap := sw - hw; gap < 3*DefaultSoftwareCost {
		t.Errorf("latency gap %.6fs implausibly small", gap)
	}
}

func TestDropsAreCounted(t *testing.T) {
	n := lineNet(t, false)
	// No LSP installed: ingress has no route.
	n.Router("a").Inject(packet.New(1, dst, 64, nil))
	n.Sim.Run()
	st := n.Router("a").Stats
	if st.Dropped.Events != 1 || st.DropsByReason[swmpls.DropNoRoute] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLocalDeliveryWithoutLabels(t *testing.T) {
	n := lineNet(t, false)
	r := n.Router("a")
	r.AddLocal(dst)
	got := 0
	r.OnDeliver = func(*packet.Packet) { got++ }
	r.Inject(packet.New(1, dst, 64, nil))
	n.Sim.Run()
	if got != 1 || r.Stats.Delivered.Events != 1 {
		t.Errorf("delivered=%d stats=%+v", got, r.Stats.Delivered)
	}
}

func TestMissingLinkDropsInsteadOfPanics(t *testing.T) {
	sim := netsim.New()
	plane := NewSoftwarePlane(0)
	r := New(sim, "lone", plane)
	if err := plane.MapFEC(dst, 32, swmpls.NHLFE{NextHop: "ghost", Op: label.OpPush, PushLabels: []label.Label{16}}); err != nil {
		t.Fatal(err)
	}
	r.Inject(packet.New(1, dst, 64, nil))
	sim.Run()
	if r.Stats.DropsByReason[swmpls.DropNoRoute] != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestEngineSerialisation(t *testing.T) {
	// Two packets injected at the same instant at a software router must
	// finish processing 2x the per-packet cost apart.
	sim := netsim.New()
	plane := NewSoftwarePlane(0.001)
	r := New(sim, "r", plane)
	r.AddLocal(0) // unused; packets will drop at no-route after the engine
	r.Inject(packet.New(1, dst, 64, nil))
	r.Inject(packet.New(1, dst, 64, nil))
	sim.Run()
	// Both dropped (no route) — but only after serialised processing.
	if sim.Now() < 0.002-1e-12 {
		t.Errorf("simulation ended at %gs, want >= 2ms of engine time", sim.Now())
	}
	if r.Stats.Dropped.Events != 2 {
		t.Errorf("drops = %d", r.Stats.Dropped.Events)
	}
}

func TestTunnelOverHardwarePlane(t *testing.T) {
	// A 5-node net with a tunnel b->c->d; inner LSP a-b-(tunnel)-d-e.
	nodes := []NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LSR},
		{Name: "d", Hardware: true, RouterType: lsm.LSR},
		{Name: "e", Hardware: true, RouterType: lsm.LER},
	}
	var links []LinkSpec
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}} {
		links = append(links, LinkSpec{A: pair[0], B: pair[1], RateBPS: 10e6, Delay: 0.0005})
	}
	n, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	// b pushes the tunnel label onto the unchanged inner label 100; the
	// tunnel tail d pops, re-examines 100 and swaps it toward e.
	for _, e := range []struct {
		router string
		in     label.Label
		nhlfe  swmpls.NHLFE
	}{
		{"b", 100, swmpls.NHLFE{NextHop: "c", Op: label.OpPush, PushLabels: []label.Label{200}}},
		{"c", 200, swmpls.NHLFE{NextHop: "d", Op: label.OpSwap, PushLabels: []label.Label{201}}},
		{"d", 201, swmpls.NHLFE{Op: label.OpPop}},
		{"d", 100, swmpls.NHLFE{NextHop: "e", Op: label.OpSwap, PushLabels: []label.Label{101}}},
		{"e", 101, swmpls.NHLFE{Op: label.OpPop}},
	} {
		if err := n.Router(e.router).InstallILM(e.in, e.nhlfe); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Router("a").InstallFEC(dst, 32, swmpls.NHLFE{NextHop: "b", Op: label.OpPush, PushLabels: []label.Label{100}}); err != nil {
		t.Fatal(err)
	}
	var delivered *packet.Packet
	n.Router("e").OnDeliver = func(p *packet.Packet) { delivered = p }
	n.Router("a").Inject(packet.New(1, dst, 64, []byte("tunnelled")))
	n.Sim.Run()
	if delivered == nil {
		t.Fatal("packet lost in the tunnel")
	}
	if delivered.Labelled() {
		t.Error("labels survived egress")
	}
	if string(delivered.Payload) != "tunnelled" {
		t.Error("payload corrupted")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]NodeSpec{{Name: "a"}, {Name: "a"}}, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := Build([]NodeSpec{{Name: "a"}}, []LinkSpec{{A: "a", B: "ghost", RateBPS: 1}}); err == nil {
		t.Error("link to unknown node accepted")
	}
	if _, err := Build([]NodeSpec{{Name: "a"}}, []LinkSpec{{A: "ghost", B: "a", RateBPS: 1}}); err == nil {
		t.Error("link from unknown node accepted")
	}
	n, err := Build([]NodeSpec{{Name: "a"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Router() on unknown name should panic")
		}
	}()
	n.Router("ghost")
}

// TestPHPEndToEnd: with penultimate hop popping, the egress receives a
// plain IP packet and delivers it locally — no label operation at the
// last hop at all.
func TestPHPEndToEnd(t *testing.T) {
	for _, hw := range []bool{false, true} {
		name := "software"
		if hw {
			name = "hardware"
		}
		t.Run(name, func(t *testing.T) {
			n := lineNet(t, hw)
			installLSP(t, n, dst, []string{"a", "b", "c", "d"}, 100, true)
			n.Router("d").AddLocal(dst)
			var got *packet.Packet
			n.Router("d").OnDeliver = func(p *packet.Packet) { got = p }
			n.Router("a").Inject(packet.New(1, dst, 64, []byte("php")))
			n.Sim.Run()
			if got == nil {
				t.Fatal("not delivered")
			}
			if got.Labelled() {
				t.Error("label survived to the PHP egress")
			}
			// a, b, c each decrement (c pops and propagates); d delivers
			// an unlabelled local packet without another decrement.
			if got.Header.TTL != 61 {
				t.Errorf("TTL = %d, want 61", got.Header.TTL)
			}
			// The egress performed no label operation: its data plane saw
			// no packets at all (local delivery short-circuits).
			if n.Router("d").Stats.Forwarded.Events != 0 {
				t.Error("PHP egress forwarded instead of delivering")
			}
		})
	}
}

// TestPlanesAgreeOnSwap programs the same swap binding into the three
// data planes a router can hold and drives each through its native
// entry point (Forward, Device.Process, Engine.ProcessInline): every
// plane must apply the swap, and with a sink attached every plane must
// count an unknown label as exactly one lookup-miss drop. The serial
// planes trace the op and the discard; the engine traces on its workers
// (TestEngineSetTelemetry), never on the inline path.
func TestPlanesAgreeOnSwap(t *testing.T) {
	swap := swmpls.NHLFE{NextHop: "b", Op: label.OpSwap, PushLabels: []label.Label{200}}
	eng := dataplane.New(dataplane.WithWorkers(1))
	for _, tc := range []struct {
		name       string
		plane      DataPlane
		wantEvents int
	}{
		{"swmpls", NewSoftwarePlane(0), 2},
		{"device", NewHardwarePlane(device.New(lsm.LSR, lsm.DefaultClock)), 2},
		{"engine", NewEnginePlane(eng, 0), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.plane.Close()
			if err := tc.plane.InstallILM(100, swap); err != nil {
				t.Fatal(err)
			}
			drops := new(telemetry.DropCounters)
			ring := telemetry.NewRing(16)
			tc.plane.SetTelemetry(telemetry.Sink{Drops: drops, Trace: ring, Node: tc.name})

			transit := func(l label.Label) *packet.Packet {
				p := packet.New(packet.AddrFrom(192, 0, 2, 1), dst, 64, nil)
				if err := p.Stack.Push(label.Entry{Label: l, TTL: 16}); err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := transit(100)
			res, _ := tc.plane.Process(p)
			if res.Action != swmpls.Forward || res.Op != label.OpSwap || res.NextHop != "b" {
				t.Fatalf("swap result = %+v", res)
			}
			if top, err := p.Stack.Top(); err != nil || top.Label != 200 {
				t.Fatalf("top after swap = %v, %v", top, err)
			}

			if res, _ = tc.plane.Process(transit(999)); res.Action != swmpls.Drop {
				t.Fatalf("unknown label result = %+v", res)
			}
			if got := drops.Get(telemetry.ReasonLookupMiss); got != 1 {
				t.Errorf("lookup-miss drops = %d, want 1", got)
			}
			evs := ring.Events()
			if len(evs) != tc.wantEvents {
				t.Fatalf("trace events = %d, want %d", len(evs), tc.wantEvents)
			}
			for _, ev := range evs {
				if ev.Node != tc.name {
					t.Errorf("trace node = %q, want %q", ev.Node, tc.name)
				}
			}
		})
	}
}
