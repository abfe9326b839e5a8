// Package integration holds cross-package property tests: randomized
// topologies, CSPF-routed LSPs over mixed hardware/software data planes,
// and conservation invariants — every injected packet must be delivered
// or show up in exactly one drop counter, TTLs must reflect the hop
// count, and the network must drain (no stuck events).
package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/te"
	"embeddedmpls/internal/trafficgen"
)

// randomNetwork builds a connected topology of n nodes: a random spanning
// tree plus extra random edges, with a random mix of hardware and
// software planes (hardware nodes are LERs so any node can be an
// ingress).
func randomNetwork(t *testing.T, rng *rand.Rand, n int) *router.Network {
	t.Helper()
	nodes := make([]router.NodeSpec, n)
	for i := range nodes {
		nodes[i] = router.NodeSpec{
			Name:       fmt.Sprintf("r%d", i),
			Hardware:   rng.Intn(2) == 0,
			RouterType: lsm.LER,
		}
	}
	seen := map[[2]string]bool{}
	var links []router.LinkSpec
	addLink := func(a, b int) {
		ka := [2]string{nodes[a].Name, nodes[b].Name}
		kb := [2]string{nodes[b].Name, nodes[a].Name}
		if a == b || seen[ka] || seen[kb] {
			return
		}
		seen[ka] = true
		links = append(links, router.LinkSpec{
			A: nodes[a].Name, B: nodes[b].Name,
			RateBPS: 50e6, Delay: 0.0005, QueueCap: 256,
			Metric: float64(1 + rng.Intn(4)),
		})
	}
	// Spanning tree: node i attaches to a random earlier node.
	for i := 1; i < n; i++ {
		addLink(i, rng.Intn(i))
	}
	// Extra edges for path diversity.
	for k := 0; k < n; k++ {
		addLink(rng.Intn(n), rng.Intn(n))
	}
	net, err := router.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

type flowSpec struct {
	id     uint16
	dst    packet.Addr
	path   []string
	egress string
}

// setupRandomLSPs routes nFlows LSPs between random distinct node pairs
// via CSPF, signals them one by one (each CSPF sees the reservations of
// the LSPs before it), stops the speakers and returns the LSPs' specs.
func setupRandomLSPs(t *testing.T, rng *rand.Rand, net *router.Network, nFlows int) []flowSpec {
	t.Helper()
	speakers, err := signaling.Deploy(net)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, sp := range speakers {
			sp.Stop()
		}
	}()
	names := net.Topo.Nodes()
	var flows []flowSpec
	for i := 0; i < nFlows; i++ {
		src := names[rng.Intn(len(names))]
		dst := names[rng.Intn(len(names))]
		if src == dst {
			continue
		}
		path, err := net.Topo.CSPF(te.PathRequest{From: src, To: dst, BandwidthBPS: 1e6})
		if err != nil {
			continue // partition shouldn't happen (spanning tree) but be safe
		}
		addr := packet.AddrFrom(10, byte(i), 0, 1)
		err = signaling.Establish(net, speakers, ldp.SetupRequest{
			ID:        fmt.Sprintf("lsp%d", i),
			FEC:       ldp.FEC{Dst: addr, PrefixLen: 32},
			Path:      path,
			Bandwidth: 1e6,
			CoS:       5,
		})
		if err != nil {
			t.Fatalf("flow %d (%v): %v", i, path, err)
		}
		flows = append(flows, flowSpec{id: uint16(i + 1), dst: addr, path: path, egress: dst})
	}
	if len(flows) == 0 {
		t.Fatal("no flows established")
	}
	return flows
}

// accountDrops sums router-level and link-level drops across the network.
func accountDrops(net *router.Network) (routerDrops, linkDrops uint64) {
	for _, name := range net.Topo.Nodes() {
		r := net.Router(name)
		routerDrops += r.Stats.Dropped.Events
		for _, nb := range net.Topo.Neighbours(name) {
			if l, ok := r.SimLink(nb); ok {
				linkDrops += l.Queue().Dropped() + l.Lost.Events
			}
		}
	}
	return
}

func TestRandomMeshConservationAndTTL(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			net := randomNetwork(t, rng, 8)
			flows := setupRandomLSPs(t, rng, net, 6)

			collector := trafficgen.NewCollector(net.Sim)
			attached := map[string]bool{}
			for _, f := range flows {
				if !attached[f.egress] {
					collector.Attach(net.Router(f.egress))
					attached[f.egress] = true
				}
			}
			const perFlow = 50
			stop := net.Sim.Now() + 0.002*perFlow - 0.001
			for _, f := range flows {
				trafficgen.CBR{
					Flow:     trafficgen.Flow{ID: f.id, Dst: f.dst, TTL: 64},
					Size:     256,
					Interval: 0.002,
					Stop:     stop,
				}.Install(net.Sim, net.Router(f.path[0]), collector)
			}
			net.Sim.Run()

			if net.Sim.Pending() != 0 {
				t.Fatalf("%d events stuck after Run", net.Sim.Pending())
			}

			var sent, delivered uint64
			for _, f := range flows {
				fs := collector.Flow(f.id)
				sent += fs.Sent.Events
				delivered += fs.Delivered.Events
				if fs.Sent.Events != perFlow {
					t.Errorf("flow %d sent %d, want %d", f.id, fs.Sent.Events, perFlow)
				}
				// Uncongested 50 Mbps links with reservations: no loss.
				if fs.LossRate() != 0 {
					t.Errorf("flow %d lost %.1f%%", f.id, 100*fs.LossRate())
				}
				// TTL at delivery = 64 - hops (every router on the path
				// decrements once). Latency must reflect the hop count
				// too: at least hops * propagation delay.
				hops := len(f.path)
				minLatency := float64(hops-1) * 0.0005
				if fs.Latency.Min() < minLatency {
					t.Errorf("flow %d latency %.6f below propagation floor %.6f",
						f.id, fs.Latency.Min(), minLatency)
				}
				_ = hops
			}
			routerDrops, linkDrops := accountDrops(net)
			if delivered+routerDrops+linkDrops != sent {
				t.Errorf("conservation violated: sent=%d delivered=%d routerDrops=%d linkDrops=%d",
					sent, delivered, routerDrops, linkDrops)
			}
		})
	}
}

// TestRandomMeshTTLExactness checks the exact per-flow TTL arithmetic by
// delivering one probe per flow and comparing against the LSP length.
func TestRandomMeshTTLExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := randomNetwork(t, rng, 10)
	flows := setupRandomLSPs(t, rng, net, 8)

	got := map[uint16]*packet.Packet{}
	for _, f := range flows {
		f := f
		net.Router(f.egress).OnDeliver = func(p *packet.Packet) { got[p.Header.FlowID] = p }
	}
	for _, f := range flows {
		p := packet.New(1, f.dst, 64, nil)
		p.Header.FlowID = f.id
		net.Router(f.path[0]).Inject(p)
	}
	net.Sim.Run()

	for _, f := range flows {
		p, ok := got[f.id]
		if !ok {
			// The egress router's OnDeliver may have been overwritten by
			// a same-egress flow; both still record into got by FlowID.
			t.Errorf("flow %d not delivered", f.id)
			continue
		}
		wantTTL := 64 - len(f.path)
		if int(p.Header.TTL) != wantTTL {
			t.Errorf("flow %d (path %v): TTL %d, want %d", f.id, f.path, p.Header.TTL, wantTTL)
		}
		if p.Labelled() {
			t.Errorf("flow %d delivered labelled", f.id)
		}
	}
}

// TestOverloadAccountsEveryPacket drives a deliberately congested mesh
// and checks conservation still holds when drops are plentiful.
func TestOverloadAccountsEveryPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := []router.NodeSpec{
		{Name: "r0", Hardware: true, RouterType: lsm.LER},
		{Name: "r1", Hardware: false},
		{Name: "r2", Hardware: true, RouterType: lsm.LER},
	}
	links := []router.LinkSpec{
		{A: "r0", B: "r1", RateBPS: 10e6, Delay: 0.0005, QueueCap: 8},
		{A: "r1", B: "r2", RateBPS: 1e6, Delay: 0.0005, QueueCap: 8}, // bottleneck
	}
	net, err := router.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.AddrFrom(10, 0, 0, 1)
	speakers, err := signaling.Deploy(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := signaling.Establish(net, speakers, ldp.SetupRequest{
		ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"r0", "r1", "r2"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}
	collector := trafficgen.NewCollector(net.Sim)
	collector.Attach(net.Router("r2"))
	trafficgen.Poisson{
		Flow: trafficgen.Flow{ID: 1, Dst: dst}, Size: 900,
		RatePPS: 600, Stop: 1, Seed: rng.Int63(),
	}.Install(net.Sim, net.Router("r0"), collector)
	net.Sim.Run()

	fs := collector.Flow(1)
	if fs.LossRate() < 0.2 {
		t.Fatalf("expected heavy loss, got %.1f%%", 100*fs.LossRate())
	}
	routerDrops, linkDrops := accountDrops(net)
	if fs.Delivered.Events+routerDrops+linkDrops != fs.Sent.Events {
		t.Errorf("conservation under overload: sent=%d delivered=%d rdrop=%d ldrop=%d",
			fs.Sent.Events, fs.Delivered.Events, routerDrops, linkDrops)
	}
}
