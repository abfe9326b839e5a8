package integration

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/config"
	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/trafficgen"
)

// The differential scenario's flows, all offered by the customer edge
// "ce" as plain IPv4 over its wire to the LER "ingress": flowFEC is
// inside the LSP's FEC and must arrive, flowOffFEC matches no FEC at the
// LER, and flowLowTTL reaches the LER below its guard's TTL floor.
const (
	flowFEC    = 1
	flowOffFEC = 2
	flowLowTTL = 3

	guardTTLFloor = 4
)

var differentialNodes = []string{"ce", "ingress", "core", "egress"}

// differentialScenario renders one four-node line scenario — a customer
// edge in front of a three-node LSP — in four transport dresses: the
// pure simulator ("sim"), per-packet loopback UDP ("udp", the legacy
// wire), coalesced/batched loopback UDP ("batched"), and the batched
// wire driven end to end by sharded engines with the egress pump
// ("pumped"). Everything above the wire — topology, LSP, flow timing —
// is byte-identical, so any divergence in what arrives is the wire's (or
// the pump's) doing. The flows start after signaling has converged so
// every variant carries exactly the same packets, and are gentle (200
// packets a second in all) so that a test process descheduled for a
// moment on a busy box does not overflow a socket buffer when it
// catches up. Because the traffic
// enters the LER unlabelled on a socket, the pumped variant runs LER
// ingress (guard, FTN match, push) on the sharded fast path while the
// sessions beside it stay on the serial one.
func differentialScenario(variant string, addrs []string) string {
	transport := ""
	if variant != "sim" {
		addrOf := make(map[string]string, len(addrs))
		for i, n := range differentialNodes {
			addrOf[n] = addrs[i]
		}
		nodes, _ := json.Marshal(addrOf) // a map of strings cannot fail
		knobs := map[string]string{
			"udp":     ``,
			"batched": `"coalesce": 32, "sys_batch": 32, `,
			"pumped":  `"coalesce": 32, "sys_batch": 32, "shards": 2, `,
		}[variant]
		transport = fmt.Sprintf(`,
  "transport": {"kind": "udp", %s"nodes": %s}`, knobs, nodes)
	}
	return fmt.Sprintf(`{
  "name": "differential-%s",
  "duration_s": 1.0,
  "nodes": [
    {"name": "ce"}, {"name": "ingress"}, {"name": "core"}, {"name": "egress"}
  ],
  "links": [
    {"a": "ce", "b": "ingress", "rate_mbps": 100, "delay_ms": 0.1},
    {"a": "ingress", "b": "core", "rate_mbps": 100, "delay_ms": 0.1},
    {"a": "core", "b": "egress", "rate_mbps": 100, "delay_ms": 0.1}
  ],
  "lsps": [
    {"id": "l1", "dst": "10.0.0.9", "prefix_len": 32,
     "path": ["ingress", "core", "egress"]}
  ],
  "flows": [
    {"id": %d, "kind": "cbr", "from": "ce", "dst": "10.0.0.9",
     "size_bytes": 256, "interval_ms": 10, "start_s": 0.4},
    {"id": %d, "kind": "cbr", "from": "ce", "dst": "10.9.9.9",
     "size_bytes": 256, "interval_ms": 20, "start_s": 0.4}
  ],
  "guard": {"spoof_filter": true, "ttl_min": %d}%s
}`, variant, flowFEC, flowOffFEC, guardTTLFloor, transport)
}

// armCE gives the customer edge what the scenario file cannot express:
// a default IP route toward the LER (a CE has no labels, it forwards
// hop by hop) and a flow whose TTL, after the CE's own decrement, is
// below the LER's guard floor. Callers hold the network lock where one
// is needed.
func armCE(t *testing.T, b *config.Built) {
	t.Helper()
	tbl := iproute.NewTable()
	if err := tbl.Add(0, 0, "ingress"); err != nil {
		t.Fatal(err)
	}
	ce := b.Net.Router("ce")
	ce.SetIPTable(tbl)
	trafficgen.CBR{
		Flow:     trafficgen.Flow{ID: flowLowTTL, Dst: packet.AddrFrom(10, 0, 0, 9), TTL: guardTTLFloor},
		Size:     256,
		Interval: 20e-3,
		Start:    0.4,
		Stop:     1.0,
	}.Install(b.Net.Sim, ce, b.Collector)
}

// wireResult is one variant's observable outcome: what each flow
// counted end to end and what the drop taxonomy blamed, summed over
// every node.
type wireResult struct {
	sent, delivered map[uint16]uint64
	drops           map[telemetry.Reason]uint64
}

var differentialFlows = []uint16{flowFEC, flowOffFEC, flowLowTTL}

func runDifferentialSim(t *testing.T, js string) wireResult {
	t.Helper()
	s, err := config.Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Close()
	var drops telemetry.DropCounters
	b.Net.SetTelemetry(telemetry.Sink{Drops: &drops})
	// The in-process build has no guard section handling (and no
	// signaling speaker to advertise labels to a spoof filter), so the
	// TTL floor — the one check the scenario's traffic runs into — is
	// armed here.
	b.Net.SetGuard(guard.New(
		guard.WithDefaultPolicy(guard.Policy{MinTTL: guardTTLFloor}),
		guard.WithDropFunc(b.Net.Drop),
	))
	armCE(t, b)
	b.Run()
	res := wireResult{sent: map[uint16]uint64{}, delivered: map[uint16]uint64{}, drops: dropMap(&drops)}
	for _, id := range differentialFlows {
		fs := b.Collector.Flow(id)
		res.sent[id], res.delivered[id] = fs.Sent.Events, fs.Delivered.Events
	}
	return res
}

func runDifferentialUDP(t *testing.T, js string) wireResult {
	t.Helper()
	s, err := config.Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	built := make([]*config.Built, len(differentialNodes))
	for i, name := range differentialNodes {
		b, err := s.BuildNode(name)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Net.Close()
		built[i] = b
	}
	ce, egress := built[0], built[3]
	ce.Net.Lock()
	armCE(t, ce)
	ce.Net.Unlock()
	var wg sync.WaitGroup
	for _, b := range built {
		wg.Add(1)
		go func(b *config.Built) {
			defer wg.Done()
			b.Net.RunReal(s.DurationS + 0.3)
		}(b)
	}
	// Sessions may bounce once while they form (a Hello crossing the
	// peer's Init tears an operational session down again); what must not
	// happen is a flap once the flood is on. The flows start at 0.4 s of
	// the clock RunReal just started, so the count is read shortly
	// before and again when they stop at 1.0 s: a test process stalled
	// past the 120 ms dead timer in the idle tail of the run flaps
	// sessions too, and that is the box, not the flood.
	sessionDowns := func() []uint64 {
		downs := make([]uint64, len(built))
		for i, b := range built {
			downs[i] = b.Events.Get(telemetry.EventSessionDown)
		}
		return downs
	}
	time.Sleep(300 * time.Millisecond)
	downsBefore := sessionDowns()
	time.Sleep(700 * time.Millisecond)
	downsAfter := sessionDowns()
	wg.Wait()

	res := wireResult{sent: map[uint16]uint64{}, delivered: map[uint16]uint64{}, drops: map[telemetry.Reason]uint64{}}
	for _, id := range differentialFlows {
		ce.Net.Lock()
		res.sent[id] = ce.Collector.Flow(id).Sent.Events
		ce.Net.Unlock()
		egress.Net.Lock()
		res.delivered[id] = egress.Collector.Flow(id).Delivered.Events
		egress.Net.Unlock()
	}
	// On a pumped LER the flood must have entered through the shard
	// queues: everything the guard admitted, nothing through Receive.
	if ep, ok := built[1].Net.Router("ingress").Plane().(*router.EnginePlane); ok {
		want := res.sent[flowFEC] + res.sent[flowOffFEC]
		if got := ep.Engine.Snapshot().Submitted.Events; got != want {
			t.Errorf("ingress engine took %d packets off the wire, want %d", got, want)
		}
	}
	for i, b := range built {
		for r, n := range dropMap(b.Drops) {
			res.drops[r] += n
		}
		// The data flood shares each node with its signaling sessions:
		// none went down while it ran.
		if down := downsAfter[i] - downsBefore[i]; down != 0 {
			t.Errorf("%s: %d session-down events while the flows ran", differentialNodes[i], down)
		}
	}
	return res
}

// dropMap snapshots the nonzero counters of a drop taxonomy.
func dropMap(d *telemetry.DropCounters) map[telemetry.Reason]uint64 {
	m := map[telemetry.Reason]uint64{}
	for r := telemetry.Reason(0); r < telemetry.NumReasons; r++ {
		if n := d.Get(r); n > 0 {
			m[r] = n
		}
	}
	return m
}

// TestDifferentialTransports runs one scenario over the simulator, the
// legacy one-datagram-per-packet UDP wire, the batched coalesced-frame
// wire, and the sharded-engine egress pump on that batched wire, and
// demands all four agree: same packets sent per flow, every in-FEC
// packet delivered, every off-FEC packet dropped as no-route and every
// low-TTL packet as ttl-security at the LER — and nothing else dropped
// in any taxonomy bucket. A coalescing bug (lost tail frame, miscounted
// segment, spurious decode drop), a pump bug (a packet stranded in a
// staging ring, a batch flushed twice) or an ingress-classification bug
// (a discard counted twice or by the wrong owner, a guard skipped on
// the fast path) shows up as a divergence here before it shows up in
// production topologies.
func TestDifferentialTransports(t *testing.T) {
	n := len(differentialNodes)
	results := map[string]wireResult{
		"sim":     runDifferentialSim(t, differentialScenario("sim", nil)),
		"udp":     runDifferentialUDP(t, differentialScenario("udp", freeUDPAddrs(t, n))),
		"batched": runDifferentialUDP(t, differentialScenario("batched", freeUDPAddrs(t, n))),
		"pumped":  runDifferentialUDP(t, differentialScenario("pumped", freeUDPAddrs(t, n))),
	}

	ref := results["sim"]
	for _, id := range differentialFlows {
		if ref.sent[id] == 0 {
			t.Fatalf("sim variant sent nothing on flow %d", id)
		}
	}
	for name, r := range results {
		t.Logf("%-8s sent=%v delivered=%v drops=%v", name, r.sent, r.delivered, r.drops)
		for _, id := range differentialFlows {
			if r.sent[id] != ref.sent[id] {
				t.Errorf("%s sent %d packets on flow %d, sim sent %d — the flow must not depend on the wire",
					name, r.sent[id], id, ref.sent[id])
			}
		}
		if r.delivered[flowFEC] != r.sent[flowFEC] {
			t.Errorf("%s delivered %d of %d sent inside the FEC", name, r.delivered[flowFEC], r.sent[flowFEC])
		}
		if got := r.delivered[flowOffFEC] + r.delivered[flowLowTTL]; got != 0 {
			t.Errorf("%s delivered %d packets that should have been dropped at the LER", name, got)
		}
		want := map[telemetry.Reason]uint64{
			telemetry.ReasonNoRoute:     r.sent[flowOffFEC],
			telemetry.ReasonTTLSecurity: r.sent[flowLowTTL],
		}
		if !reflect.DeepEqual(r.drops, want) {
			t.Errorf("%s recorded drops %v, want %v", name, r.drops, want)
		}
	}
}
