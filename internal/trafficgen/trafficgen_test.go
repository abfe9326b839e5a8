package trafficgen

import (
	"math"
	"strings"
	"testing"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
)

var dst = packet.AddrFrom(10, 0, 0, 5)

// twoNode builds src--dst routers with a signalled LSP between them
// (the speakers stopped, so the link carries only traffic from here on)
// and a collector attached at the destination.
func twoNode(t *testing.T, rateBPS float64, queueCap int) (*router.Network, *Collector) {
	t.Helper()
	n, err := router.Build(
		[]router.NodeSpec{{Name: "src"}, {Name: "dst"}},
		[]router.LinkSpec{{A: "src", B: "dst", RateBPS: rateBPS, Delay: 0.001, QueueCap: queueCap}},
	)
	if err != nil {
		t.Fatal(err)
	}
	speakers, err := signaling.Deploy(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := signaling.Establish(n, speakers, ldp.SetupRequest{
		ID:   "lsp",
		FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"src", "dst"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}
	c := NewCollector(n.Sim)
	c.Attach(n.Router("dst"))
	return n, c
}

func TestCBRPacketCount(t *testing.T) {
	n, c := twoNode(t, 10e6, 512)
	t0 := n.Sim.Now()
	g := CBR{Flow: Flow{ID: 1, Dst: dst}, Size: 100, Interval: 0.010, Start: 0, Stop: t0 + 0.995}
	g.Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()
	f := c.Flow(1)
	// Ticks at t0, t0+0.01, ..., t0+0.99: 100 packets.
	if f.Sent.Events != 100 {
		t.Errorf("sent = %d, want 100", f.Sent.Events)
	}
	if f.Delivered.Events != 100 {
		t.Errorf("delivered = %d, want 100", f.Delivered.Events)
	}
	if f.LossRate() != 0 {
		t.Errorf("loss = %v", f.LossRate())
	}
	// Latency = engine + serialisation + propagation, well under 10 ms,
	// and every packet sees the same uncongested path.
	if f.Latency.Max() > 0.005 || f.Latency.Min() <= 0.001 {
		t.Errorf("latency range [%v, %v] implausible", f.Latency.Min(), f.Latency.Max())
	}
}

func TestVoIPPreset(t *testing.T) {
	g := VoIP(Flow{ID: 2, Dst: dst}, 0, 1)
	if g.Size != 160 || g.Interval != 0.020 {
		t.Errorf("VoIP preset = %+v", g)
	}
	if !strings.Contains(g.Describe(), "CBR") {
		t.Errorf("describe = %q", g.Describe())
	}
}

func TestPoissonRateAndDeterminism(t *testing.T) {
	counts := make([]uint64, 2)
	for trial := range counts {
		n, c := twoNode(t, 100e6, 512)
		g := Poisson{Flow: Flow{ID: 3, Dst: dst}, Size: 100, RatePPS: 1000, Stop: 2, Seed: 7}
		g.Install(n.Sim, n.Router("src"), c)
		n.Sim.Run()
		counts[trial] = c.Flow(3).Sent.Events
	}
	if counts[0] != counts[1] {
		t.Errorf("same seed produced %d and %d packets", counts[0], counts[1])
	}
	// ~2000 expected; 4 sigma is ~180.
	if math.Abs(float64(counts[0])-2000) > 200 {
		t.Errorf("poisson sent %d packets over 2s at 1000pps", counts[0])
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	n, c := twoNode(t, 100e6, 512)
	// 1 Mbps peak, 100 ms on / 100 ms off over 1s -> ~0.5 Mbit total.
	g := OnOff{Flow: Flow{ID: 4, Dst: dst}, Size: 488, PeakBPS: 1e6, On: 0.1, Off: 0.1, Stop: 0.999}
	g.Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()
	f := c.Flow(4)
	bits := float64(f.Sent.Bytes) * 8
	if bits < 0.35e6 || bits > 0.65e6 {
		t.Errorf("on/off sent %.0f bits, want ~0.5e6", bits)
	}
}

func TestBulkRate(t *testing.T) {
	n, c := twoNode(t, 100e6, 512)
	g := Bulk{Flow: Flow{ID: 5, Dst: dst}, Size: 1188, RateBPS: 8e6, Stop: 0.9999}
	g.Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()
	f := c.Flow(5)
	bits := float64(f.Sent.Bytes) * 8
	// 8 Mbps for 1 s (wire size accounting makes it slightly under).
	if bits < 7.5e6 || bits > 8.5e6 {
		t.Errorf("bulk sent %.2g bits in 1s at 8 Mbps", bits)
	}
}

func TestCongestionCausesLossAndQueueing(t *testing.T) {
	// 2 Mbps of offered load into a 1 Mbps link with a shallow queue:
	// a large share must be lost and latency must blow up relative to an
	// idle path.
	n, c := twoNode(t, 1e6, 16)
	g := Bulk{Flow: Flow{ID: 6, Dst: dst}, Size: 988, RateBPS: 2e6, Stop: 0.999}
	g.Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()
	f := c.Flow(6)
	if f.LossRate() < 0.3 {
		t.Errorf("loss = %v under 2x overload", f.LossRate())
	}
	if f.Latency.Max() < 0.01 {
		t.Errorf("max latency %v shows no queueing", f.Latency.Max())
	}
}

func TestCollectorBookkeeping(t *testing.T) {
	sim := netsim.New()
	c := NewCollector(sim)
	_ = c.Flow(9) // allocate empty record
	if ids := c.FlowIDs(); len(ids) != 1 || ids[0] != 9 {
		t.Errorf("flow ids = %v", ids)
	}
	if c.Flow(9).Sent.Events != 0 {
		t.Error("fresh flow should be empty")
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	sim := netsim.New()
	r := router.New(sim, "r", router.NewSoftwarePlane(0))
	c := NewCollector(sim)
	for name, f := range map[string]func(){
		"cbr":     func() { CBR{Interval: 0}.Install(sim, r, c) },
		"poisson": func() { Poisson{RatePPS: 0}.Install(sim, r, c) },
		"onoff":   func() { OnOff{}.Install(sim, r, c) },
		"bulk":    func() { Bulk{}.Install(sim, r, c) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDescribeAll(t *testing.T) {
	gens := []Generator{
		CBR{Flow: Flow{ID: 1}, Size: 1, Interval: 1},
		Poisson{Flow: Flow{ID: 2}, RatePPS: 1},
		OnOff{Flow: Flow{ID: 3}, PeakBPS: 1, On: 1},
		Bulk{Flow: Flow{ID: 4}, RateBPS: 1},
	}
	for _, g := range gens {
		if g.Describe() == "" {
			t.Errorf("%T has empty description", g)
		}
	}
}

func TestSeriesTracking(t *testing.T) {
	n, _ := twoNode(t, 10e6, 512)
	c := NewCollector(n.Sim)
	c.TrackSeries(0.1)
	c.Attach(n.Router("dst"))
	CBR{Flow: Flow{ID: 9, Dst: dst}, Size: 100, Interval: 0.010, Stop: 0.499}.
		Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()
	s := c.Series(9)
	if s == nil {
		t.Fatal("no series recorded")
	}
	bins := s.Bins()
	if len(bins) < 5 {
		t.Fatalf("%d bins", len(bins))
	}
	// Steady CBR: every full bin carries ~10 packets.
	for i, b := range bins[:5] {
		if b.Count < 9 || b.Count > 11 {
			t.Errorf("bin %d count = %d", i, b.Count)
		}
	}
	if c.Series(42) != nil {
		t.Error("series for an unseen flow should be nil")
	}
	// Tracking disabled: Series returns nil.
	c2 := NewCollector(n.Sim)
	if c2.Series(9) != nil {
		t.Error("series without tracking should be nil")
	}
}

// TestQueueFullDropsVisibleToFlowStats covers the fixed accounting gap:
// queue-overfull drops at a congested link used to be counted only in
// the link scheduler's aggregate, leaving FlowStats.Dropped at zero and
// Sent != Delivered + Dropped. With the collector watching the link,
// every offered packet is attributed to its flow exactly once.
func TestQueueFullDropsVisibleToFlowStats(t *testing.T) {
	n, c := twoNode(t, 1e6, 8)
	c.WatchRouter(n.Router("src"))

	// 4 Mbps into a 1 Mbps link with an 8-packet queue: heavy loss.
	Bulk{Flow: Flow{ID: 11, Dst: dst}, Size: 988, RateBPS: 4e6, Stop: 0.999}.
		Install(n.Sim, n.Router("src"), c)
	n.Sim.Run()

	f := c.Flow(11)
	if f.Dropped.Events == 0 {
		t.Fatal("queue-full drops still invisible to FlowStats")
	}
	if f.Sent.Events != f.Delivered.Events+f.Dropped.Events {
		t.Errorf("sent %d != delivered %d + dropped %d",
			f.Sent.Events, f.Delivered.Events, f.Dropped.Events)
	}
	// The collector's reason accounting and the link scheduler's own
	// drop count must agree.
	link, ok := n.Router("src").SimLink("dst")
	if !ok {
		t.Fatal("no src->dst link")
	}
	if got := c.Drops.Get(telemetry.ReasonQueueOverfull); got != link.Queue().Dropped() {
		t.Errorf("collector counted %d queue drops, scheduler %d", got, link.Queue().Dropped())
	}
	if got := c.Drops.Total(); got != f.Dropped.Events {
		t.Errorf("reason total %d, flow dropped %d", got, f.Dropped.Events)
	}
}
