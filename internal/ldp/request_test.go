package ldp_test

// These tests check that every kind of SetupRequest is honoured end to
// end by the label distribution state machine, signaling.Speaker, on
// in-process networks: explicit routes, PHP, bandwidth, tunnels,
// make-before-break re-provisioning and teardown, and the refusals.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
	"embeddedmpls/internal/telemetry"
)

var (
	dst     = packet.AddrFrom(10, 0, 0, 9)
	fec     = ldp.FEC{Dst: dst, PrefixLen: 32}
	line    = [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}
	diamond = [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}
	// figure3 is the paper's Figure 3: ler1 and ler2 feed a head-mid-tail
	// core that fans out to ler3 and ler4.
	figure3 = [][2]string{{"ler1", "head"}, {"ler2", "head"}, {"head", "mid"}, {"mid", "tail"}, {"tail", "ler3"}, {"tail", "ler4"}}
)

// network builds routers joined by 10 Mbps links, on software planes or
// on the paper's device, with a signaling speaker on every router. The
// speakers tick for one simulated second; label messages are handled
// for good.
func network(t *testing.T, hardware bool, links ...[2]string) (*router.Network, map[string]*signaling.Speaker) {
	t.Helper()
	seen := map[string]bool{}
	var nodes []router.NodeSpec
	var specs []router.LinkSpec
	for _, l := range links {
		for _, n := range l {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, router.NodeSpec{Name: n, Hardware: hardware, RouterType: lsm.LER})
			}
		}
		specs = append(specs, router.LinkSpec{A: l[0], B: l[1], RateBPS: 10e6, Delay: 0.0005, Metric: 1})
	}
	net, err := router.Build(nodes, specs)
	must(t, err)
	speakers, err := signaling.Deploy(net, signaling.WithUntil(1))
	must(t, err)
	return net, speakers
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// provision re-signals req at its ingress, make-before-break, and runs
// the network until the new generation is up or refused and any old one
// has drained.
func provision(net *router.Network, speakers map[string]*signaling.Speaker, req ldp.SetupRequest) error {
	pending := errors.New("never completed")
	res := pending
	if err := speakers[req.Path[0]].Provision(req, func(err error) { res = err }); err != nil {
		return err
	}
	for res == pending && net.Sim.Pending() > 0 {
		net.Sim.RunUntil(net.Sim.Now() + 0.001)
	}
	net.Sim.RunUntil(net.Sim.Now() + 0.05)
	return res
}

// send injects one packet for dst at from and runs the network dry. It
// reports where the packet was delivered ("" if nowhere), the packet as
// delivered, and the routers that forwarded it.
func send(net *router.Network, from string, dst packet.Addr) (at string, got *packet.Packet, via map[string]bool) {
	fwd := map[string]uint64{}
	for name, r := range net.Routers {
		name := name
		fwd[name] = r.Stats.Forwarded.Events
		r.OnDeliver = func(p *packet.Packet) { at, got = name, p }
	}
	net.Router(from).Inject(packet.New(packet.AddrFrom(192, 0, 2, 1), dst, 64, []byte("data")))
	net.Sim.Run()
	via = map[string]bool{}
	for name, r := range net.Routers {
		via[name] = r.Stats.Forwarded.Events > fwd[name]
	}
	return at, got, via
}

// info returns LSP id's state at sp, or fails the test.
func info(t *testing.T, sp *signaling.Speaker, id string) signaling.LSPInfo {
	t.Helper()
	for _, l := range sp.List() {
		if l.ID == id {
			return l
		}
	}
	t.Fatalf("%s holds no state for %q", sp.Name(), id)
	return signaling.LSPInfo{}
}

// reservations snapshots the reserved bandwidth of every directed link.
func reservations(net *router.Network) map[string]float64 {
	r := map[string]float64{}
	for _, from := range net.Topo.Nodes() {
		for _, to := range net.Topo.Neighbours(from) {
			attrs, _ := net.Topo.Link(from, to)
			r[from+"->"+to] = attrs.ReservedBPS
		}
	}
	return r
}

// leftovers lists the LSP generations any node still holds; an ingress
// base waiting to be re-signalled holds nothing and is not listed.
func leftovers(speakers map[string]*signaling.Speaker) []signaling.LSPInfo {
	var out []signaling.LSPInfo
	for _, sp := range speakers {
		for _, l := range sp.List() {
			if !l.Pending {
				out = append(out, l)
			}
		}
	}
	return out
}

func TestLSPEndToEnd(t *testing.T) {
	net, speakers := network(t, false, line...)
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "lsp1", FEC: fec, Path: []string{"a", "b", "c", "d"}}))
	at, p, via := send(net, "a", dst)
	if at != "d" || !via["b"] || !via["c"] || via["e"] {
		t.Fatalf("delivered at %q via %v, want at d via b and c", at, via)
	}
	// Popped at the egress; four routers each decrement once: 64 -> 60.
	if p.Labelled() || p.Header.TTL != 60 {
		t.Errorf("delivered %v, want unlabelled with TTL 60", p)
	}
}

// TestDownstreamAllocationMessages: every hop owns the label for the hop
// into it and maps it upstream, so each node pushes or swaps exactly the
// label its downstream neighbour advertised, and the hops' labels differ.
func TestDownstreamAllocationMessages(t *testing.T) {
	net, speakers := network(t, false, line...)
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "c"}}))
	a, b, c := info(t, speakers["a"], "l"), info(t, speakers["b"], "l"), info(t, speakers["c"], "l")
	if a.OutLabel != b.InLabel || b.OutLabel != c.InLabel || b.InLabel == c.InLabel {
		t.Errorf("a pushes %d, b maps %d and swaps to %d, c maps %d", a.OutLabel, b.InLabel, b.OutLabel, c.InLabel)
	}
}

func TestLabelsAreUniqueAcrossLSPs(t *testing.T) {
	net, speakers := network(t, false, line...)
	var reqs []ldp.SetupRequest
	for i, path := range [][]string{{"a", "b", "c"}, {"c", "d", "e"}, {"a", "b", "c", "d", "e"}} {
		reqs = append(reqs, ldp.SetupRequest{ID: fmt.Sprint("x", i), FEC: ldp.FEC{Dst: dst + packet.Addr(i), PrefixLen: 32}, Path: path})
	}
	must(t, signaling.Establish(net, speakers, reqs...))
	seen := map[uint32]bool{}
	for _, sp := range speakers {
		for _, l := range sp.List() {
			if l.Role == "ingress" {
				continue
			}
			if label.Label(l.InLabel).Reserved() || seen[l.InLabel] {
				t.Errorf("%s holds label %d: reserved or allocated twice", sp.Name(), l.InLabel)
			}
			seen[l.InLabel] = true
		}
	}
}

func TestPHPStripsLabelAtPenultimate(t *testing.T) {
	net, speakers := network(t, false, line...)
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "php", FEC: fec, Path: []string{"a", "b", "c"}, PHP: true}))
	if got := info(t, speakers["b"], "php").OutLabel; got != uint32(label.ImplicitNull) {
		t.Errorf("c advertised %d to b, want implicit null", got)
	}
	if tr, _ := net.Router("c").Tables(); len(tr.ILMEntries()) != 0 {
		t.Errorf("PHP egress holds ILM entries %v", tr.ILMEntries())
	}
	if at, p, _ := send(net, "a", dst); at != "c" || p.Labelled() {
		t.Errorf("delivered at %q (%v), want unlabelled at c", at, p)
	}
}

// TestTunnelHierarchy aggregates two LSPs into one core tunnel and
// de-aggregates them at its tail, on software forwarders and on the
// paper's device: the core carries 2-level stacks, the inner label
// crosses unchanged, head->mid carries both flows, each arrives at its
// own egress, and only the hops outside the tunnel hold the riders'
// reservations.
func TestTunnelHierarchy(t *testing.T) {
	dstB := packet.AddrFrom(10, 4, 0, 1)
	for _, hw := range []bool{false, true} {
		t.Run(map[bool]string{false: "software", true: "hardware"}[hw], func(t *testing.T) {
			net, speakers := network(t, hw, figure3...)
			// Riders listed first: Establish still signals the tunnel first.
			must(t, signaling.Establish(net, speakers,
				ldp.SetupRequest{ID: "a", FEC: fec, Path: []string{"ler1", "head", "tail", "ler3"}, Bandwidth: 1e6},
				ldp.SetupRequest{ID: "b", FEC: ldp.FEC{Dst: dstB, PrefixLen: 32}, Path: []string{"ler2", "head", "tail", "ler4"}, Bandwidth: 1e6},
				ldp.SetupRequest{ID: "core", Path: []string{"head", "mid", "tail"}, Bandwidth: 4e6, Tunnel: true},
			))
			net.Sim.Run()
			ring := telemetry.NewRing(64)
			net.SetTelemetry(telemetry.Sink{Trace: ring})
			headMid, _ := net.Router("head").SimLink("mid")
			before := headMid.Delivered.Events
			if at, p, _ := send(net, "ler1", dst); at != "ler3" || p.Labelled() {
				t.Errorf("flow a delivered at %q, want unlabelled at ler3", at)
			}
			if at, _, _ := send(net, "ler2", dstB); at != "ler4" {
				t.Errorf("flow b delivered at %q, want ler4", at)
			}
			if got := headMid.Delivered.Events - before; got != 2 {
				t.Errorf("head->mid carried %d packets, want both flows", got)
			}
			depth := map[string]uint8{}
			for _, ev := range ring.Events() {
				depth[ev.Node+"/"+ev.Op.String()] = ev.Level
			}
			if depth["head/push"] != 2 || depth["mid/swap"] != 2 {
				t.Errorf("core stack depths %v, want a push to 2 levels at head and a 2-level swap at mid", depth)
			}
			if at, _, _ := send(net, "tail", 0); at != "" {
				t.Errorf("the tunnel tail bound its empty FEC's address: delivered at %s", at)
			}
			for _, id := range []string{"a", "b"} {
				head, tail := info(t, speakers["head"], id), info(t, speakers["tail"], id)
				if head.InLabel != tail.InLabel {
					t.Errorf("%s: head maps %d, tail %d: the label must cross the tunnel unchanged", id, head.InLabel, tail.InLabel)
				}
			}
			r := reservations(net)
			if r["head->mid"] != 4e6 || r["ler1->head"] != 1e6 || r["tail->ler3"] != 1e6 {
				t.Errorf("reservations %v, want the tunnel's 4 Mbps in the core and 1 Mbps on each rider hop outside it", r)
			}
		})
	}
}

// TestPHPOntoTunnelTail: an LSP whose last hop rides a tunnel gets a
// real label from the tail even with PHP, since the head must push the
// tunnel label onto one.
func TestPHPOntoTunnelTail(t *testing.T) {
	net, speakers := network(t, false, figure3...)
	must(t, signaling.Establish(net, speakers,
		ldp.SetupRequest{ID: "core", Path: []string{"head", "mid", "tail"}, Tunnel: true},
		ldp.SetupRequest{ID: "php", FEC: fec, Path: []string{"ler1", "head", "tail"}, PHP: true}))
	if at, p, _ := send(net, "ler1", dst); at != "tail" || p.Labelled() {
		t.Errorf("delivered at %q, want unlabelled at the tail", at)
	}
}

// TestTunnelTeardownGuard keeps a tunnel while an LSP rides it — neither
// torn down nor re-provisioned — and lets it go once the rider is gone.
func TestTunnelTeardownGuard(t *testing.T) {
	net, speakers := network(t, false, figure3...)
	tunnel := ldp.SetupRequest{ID: "core", Path: []string{"head", "mid", "tail"}, Tunnel: true}
	must(t, signaling.Establish(net, speakers, tunnel,
		ldp.SetupRequest{ID: "rider", FEC: fec, Path: []string{"ler1", "head", "tail", "ler3"}}))
	head := speakers["head"]
	if err := head.Teardown("core"); err == nil || !strings.Contains(err.Error(), "used by another LSP") {
		t.Fatalf("teardown of a ridden tunnel: %v", err)
	}
	if err := head.Provision(tunnel, nil); err == nil || !strings.Contains(err.Error(), "used by another LSP") {
		t.Fatalf("re-provision of a ridden tunnel: %v", err)
	}
	must(t, speakers["ler1"].Teardown("rider"))
	net.Sim.RunUntil(net.Sim.Now() + 0.05)
	must(t, head.Teardown("core"))
	net.Sim.RunUntil(net.Sim.Now() + 0.05)
	if l := leftovers(speakers); len(l) != 0 {
		t.Errorf("state left after both teardowns: %+v", l)
	}
}

// TestTunnelCannotRideTunnel covers what a tunnel cannot carry: a
// tunnel riding a tunnel, PHP on a tunnel, an LSP entering a tunnel at
// its own ingress, and a hop that is neither a link nor a tunnel.
func TestTunnelCannotRideTunnel(t *testing.T) {
	net, speakers := network(t, false, figure3...)
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "core", Path: []string{"head", "mid", "tail"}, Tunnel: true}))
	for name, req := range map[string]ldp.SetupRequest{
		"tunnel riding a tunnel": {ID: "t2", Path: []string{"ler1", "head", "tail"}, Tunnel: true},
		"php on a tunnel":        {ID: "t3", Path: []string{"head", "mid", "tail"}, PHP: true, Tunnel: true},
		"first hop a tunnel hop": {ID: "x", FEC: fec, Path: []string{"head", "tail", "ler3"}},
	} {
		if err := speakers[req.Path[0]].Setup(req, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// No tunnel runs head -> ler3: head refuses the hop, the ingress
	// learns of it.
	err := signaling.Establish(net, speakers, ldp.SetupRequest{ID: "y", FEC: fec, Path: []string{"ler2", "head", "ler3"}})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("LSP over a hop without a tunnel: %v", err)
	}
	if l := leftovers(speakers); len(l) != 3 {
		t.Errorf("state %+v, want the tunnel's three hops only", l)
	}
}

func TestTearDownRemovesStateAndReleasesBandwidth(t *testing.T) {
	net, speakers := network(t, false, line...)
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "c"}, Bandwidth: 4e6}))
	if r := reservations(net); r["a->b"] != 4e6 || r["b->c"] != 4e6 {
		t.Fatalf("reservations %v", r)
	}
	must(t, speakers["a"].Teardown("l"))
	net.Sim.RunUntil(net.Sim.Now() + 0.05)
	if r := reservations(net); r["a->b"] != 0 || r["b->c"] != 0 {
		t.Errorf("reservations leaked: %v", r)
	}
	if l := leftovers(speakers); len(l) != 0 {
		t.Errorf("state left: %+v", l)
	}
	if at, _, _ := send(net, "a", dst); at != "" {
		t.Errorf("FTN entry leaked: delivered at %s", at)
	}
	if err := speakers["a"].Teardown("l"); err == nil {
		t.Error("double teardown accepted")
	}
}

func TestSetupRejectsBadRequests(t *testing.T) {
	net, speakers := network(t, false, line...)
	a := speakers["a"]
	for name, req := range map[string]ldp.SetupRequest{
		"single hop":     {ID: "x", FEC: fec, Path: []string{"a"}},
		"unknown router": {ID: "x", FEC: fec, Path: []string{"a", "ghost"}},
		"not adjacent":   {ID: "x", FEC: fec, Path: []string{"a", "c"}},
		"php on 2 hops":  {ID: "x", FEC: fec, Path: []string{"a", "b"}, PHP: true},
	} {
		if err := a.Setup(req, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "b", "c"}}))
	if err := a.Setup(ldp.SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "b", "c"}}, nil); err == nil {
		t.Error("duplicate id accepted")
	}
}

// TestSetupRefusedOnceLabelSpaceIsExhausted runs two nodes out of
// labels. The name table is padded to 65535 nodes, so every node owns a
// block of 16 labels: b the one just below c's, and c, last in the
// table, the one that ends at label.MaxLabel. Sixteen PHP LSPs a-b-c
// take every label of b's block and none of c's; sixteen LSPs b-c then
// take c's, up to the top of the 20-bit space. Each time the
// seventeenth is refused with no state left at any hop, and every
// installed label still packs onto the wire.
func TestSetupRefusedOnceLabelSpaceIsExhausted(t *testing.T) {
	const block = 16
	order := []string{"a", "b", "c"}
	var nodes []router.NodeSpec
	for _, n := range order {
		nodes = append(nodes, router.NodeSpec{Name: n, RouterType: lsm.LER})
	}
	net, err := router.Build(nodes, []router.LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.0005, Metric: 1},
		{A: "b", B: "c", RateBPS: 10e6, Delay: 0.0005, Metric: 1},
	})
	must(t, err)
	names := make([]string, 0, (label.MaxLabel+1-label.FirstUnreserved)/block)
	for len(names) < cap(names)-len(order) {
		names = append(names, fmt.Sprint("pad", len(names)))
	}
	names = append(names, order...)
	speakers := map[string]*signaling.Speaker{}
	for _, n := range order {
		sp, err := signaling.New(net.Router(n), net.Topo, net.Sim, names, n, signaling.WithUntil(1))
		must(t, err)
		speakers[n] = sp
	}
	for _, n := range order {
		speakers[n].Start()
	}
	held := 0
	for _, phase := range []struct {
		node string // the node whose block runs out
		path []string
		php  bool
		top  label.Label // the last label of the node's block
	}{{"b", order, true, label.MaxLabel - block}, {"c", order[1:], false, label.MaxLabel}} {
		var reqs []ldp.SetupRequest
		for i := 0; i <= block; i++ {
			id := fmt.Sprint(phase.node, i)
			reqs = append(reqs, ldp.SetupRequest{ID: id, FEC: ldp.FEC{Dst: dst + packet.Addr(held+i), PrefixLen: 32}, Path: phase.path, PHP: phase.php})
		}
		must(t, signaling.Establish(net, speakers, reqs[:block]...))
		if err := signaling.Establish(net, speakers, reqs[block]); err == nil {
			t.Fatalf("%s: setup past the end of its block succeeded", phase.node)
		}
		net.Sim.RunUntil(net.Sim.Now() + 0.05)
		held += len(phase.path) * block
		left := leftovers(speakers)
		for _, l := range left {
			if l.ID == reqs[block].ID {
				t.Errorf("refused LSP left state behind: %+v", l)
			}
		}
		if len(left) != held {
			t.Errorf("%d LSP states held, want %d", len(left), held)
		}
		tr, _ := net.Router(phase.node).Tables()
		ilms := tr.ILMEntries()
		if len(ilms) != block {
			t.Errorf("%s holds %d ILM entries, want %d", phase.node, len(ilms), block)
		}
		var top label.Label
		for _, e := range ilms {
			top = max(top, e.In)
			for _, l := range append([]label.Label{e.In}, e.NHLFE.PushLabels...) {
				if _, err := (label.Entry{Label: l}).Pack(); err != nil {
					t.Errorf("%s: installed label %d does not pack: %v", phase.node, l, err)
				}
			}
		}
		if top != phase.top {
			t.Errorf("%s's highest label is %d, want %d", phase.node, top, phase.top)
		}
	}
}

func TestSetupRollsBackOnBandwidthFailure(t *testing.T) {
	net, speakers := network(t, false, line...)
	must(t, net.Topo.Reserve([]string{"b", "c"}, 10e6))
	err := signaling.Establish(net, speakers, ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "c"}, Bandwidth: 1e6})
	if err == nil {
		t.Fatal("setup over a saturated link succeeded")
	}
	if r := reservations(net); r["a->b"] != 0 {
		t.Errorf("a->b reservation leaked: %v", r["a->b"])
	}
	if tr, _ := net.Router("a").Tables(); len(tr.FECEntries()) != 0 {
		t.Errorf("FTN entry leaked after rollback: %v", tr.FECEntries())
	}
}

func TestLSPLookup(t *testing.T) {
	net, speakers := network(t, false, line...)
	if err := speakers["a"].Teardown("nope"); err == nil {
		t.Error("tore down a nonexistent LSP")
	}
	must(t, signaling.Establish(net, speakers, ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b"}}))
	if l := info(t, speakers["a"], "l"); l.Role != "ingress" || !l.Established || strings.Join(l.Route, "") != "ab" {
		t.Errorf("ingress reports %+v", l)
	}
}

// TestSetupInstallFailureReleasesBandwidth refuses a 1 Mbps setup along
// a-b-d at each point in turn — the ingress's own segment, the transit's
// segment, the ingress FTN (the device's level-1 memory holds /32 FECs
// only), the transit's full information base — and checks that every
// reservation returns to its value before the call and no hop keeps
// state. The id then re-provisions at 9 Mbps, which a leaked megabit
// would not leave room for.
func TestSetupInstallFailureReleasesBandwidth(t *testing.T) {
	for i, refusal := range []struct {
		full      []string // a segment left without room for the LSP
		prefixLen int
		fullIB    bool // b's information base holds no more pairs
	}{{[]string{"a", "b"}, 32, false}, {[]string{"b", "d"}, 32, false}, {nil, 24, false}, {nil, 32, true}} {
		t.Run(fmt.Sprint("failAt", i+1), func(t *testing.T) {
			net, speakers := network(t, true, diamond...)
			if refusal.full != nil {
				must(t, net.Topo.Reserve(refusal.full, 9.5e6))
			}
			filler := label.Label(100)
			for ; refusal.fullIB && filler < 100+infobase.EntriesPerLevel; filler++ {
				must(t, net.Router("b").InstallILM(filler, swmpls.NHLFE{Op: label.OpPop}))
			}
			req := ldp.SetupRequest{ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: refusal.prefixLen}, Path: []string{"a", "b", "d"}, Bandwidth: 1e6}
			before := reservations(net)
			if err := signaling.Establish(net, speakers, req); err == nil {
				t.Fatal("setup succeeded")
			}
			net.Sim.RunUntil(net.Sim.Now() + 0.05)
			if after := reservations(net); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("reservations %v after the failed setup, want %v", after, before)
			}
			if l := leftovers(speakers); len(l) != 0 {
				t.Errorf("state left: %+v", l)
			}
			if refusal.full != nil {
				must(t, net.Topo.Release(refusal.full, 9.5e6))
			}
			for l := label.Label(100); l < filler; l++ {
				net.Router("b").RemoveILM(l)
			}
			req.FEC, req.Bandwidth = fec, 9e6
			must(t, provision(net, speakers, req))
		})
	}
}

// TestRerouteInstallFailureKeepsOldPath refuses a make-before-break
// re-provision of a-b-d onto the other side of the diamond at each point
// in turn — the ingress's segment, the transit's segment, a hop that is
// no link — and checks that the old path, its reservations and its
// forwarding survive; a clean re-provision then moves everything.
func TestRerouteInstallFailureKeepsOldPath(t *testing.T) {
	for i, refusal := range []struct {
		full []string // a segment left without room for the LSP
		path []string
	}{
		{[]string{"a", "c"}, []string{"a", "c", "d"}},
		{[]string{"c", "d"}, []string{"a", "c", "d"}},
		{nil, []string{"a", "c", "b", "d"}},
	} {
		t.Run(fmt.Sprint("failAt", i+1), func(t *testing.T) {
			net, speakers := network(t, false, diamond...)
			req := ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "d"}, Bandwidth: 1e6}
			must(t, signaling.Establish(net, speakers, req))
			if refusal.full != nil {
				must(t, net.Topo.Reserve(refusal.full, 9.5e6))
			}
			bad := req
			bad.Path = refusal.path
			before := reservations(net)
			if err := provision(net, speakers, bad); err == nil {
				t.Fatal("re-provision succeeded")
			}
			if after := reservations(net); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("reservations %v after the failed re-provision, want %v", after, before)
			}
			if l := info(t, speakers["a"], "l"); strings.Join(l.Route, "") != "abd" || !l.Established {
				t.Errorf("ingress reports %+v, want the old a-b-d", l)
			}
			if at, _, via := send(net, "a", dst); at != "d" || !via["b"] {
				t.Errorf("old path broken: delivered at %q via %v", at, via)
			}
			if refusal.full != nil {
				must(t, net.Topo.Release(refusal.full, 9.5e6))
			}
			req.Path = []string{"a", "c", "d"}
			must(t, provision(net, speakers, req))
			if r := reservations(net); r["a->b"] != 0 || r["b->d"] != 0 || r["a->c"] != 1e6 || r["c->d"] != 1e6 {
				t.Errorf("reservations after the clean re-provision: %v", r)
			}
		})
	}
}

func TestRerouteMovesTraffic(t *testing.T) {
	net, speakers := network(t, false, diamond...)
	req := ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "d"}, Bandwidth: 2e6}
	must(t, signaling.Establish(net, speakers, req))
	if at, _, via := send(net, "a", dst); at != "d" || !via["b"] {
		t.Fatalf("before: delivered at %q via %v", at, via)
	}
	req.Path = []string{"a", "c", "d"}
	must(t, provision(net, speakers, req))
	if at, _, via := send(net, "a", dst); at != "d" || via["b"] || !via["c"] {
		t.Errorf("after: delivered at %q via %v, want via c", at, via)
	}
	// The old path's state is gone: b holds no label, and a-b's
	// reservation moved to a-c.
	if tr, _ := net.Router("b").Tables(); len(tr.ILMEntries()) != 0 {
		t.Errorf("b still holds %v", tr.ILMEntries())
	}
	if r := reservations(net); r["a->b"] != 0 || r["a->c"] != 2e6 {
		t.Errorf("reservations %v", r)
	}
}

func TestRerouteFailureLeavesOldPathIntact(t *testing.T) {
	net, speakers := network(t, false, diamond...)
	req := ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "d"}, Bandwidth: 2e6}
	must(t, signaling.Establish(net, speakers, req))
	must(t, net.Topo.Reserve([]string{"a", "c"}, 10e6))
	req.Path = []string{"a", "c", "d"}
	if err := provision(net, speakers, req); !errors.Is(err, te.ErrBandwidth) {
		t.Fatalf("err = %v, want a bandwidth refusal", err)
	}
	if at, _, _ := send(net, "a", dst); at != "d" {
		t.Errorf("old path broken after the refused re-provision: delivered at %q", at)
	}
}

func TestRerouteUnknownAndInUse(t *testing.T) {
	net, speakers := network(t, false, diamond...)
	if err := speakers["a"].Teardown("ghost"); err == nil {
		t.Error("tore down a ghost")
	}
	tunnel := ldp.SetupRequest{ID: "tun", Path: []string{"a", "b", "d"}, Tunnel: true}
	// The rider enters the tunnel after one real hop: an ingress cannot
	// start inside a tunnel.
	must(t, signaling.Establish(net, speakers, tunnel, ldp.SetupRequest{ID: "rider", FEC: fec, Path: []string{"c", "a", "d"}}))
	tunnel.Path = []string{"a", "c", "d"}
	if err := provision(net, speakers, tunnel); err == nil || !strings.Contains(err.Error(), "used by another LSP") {
		t.Errorf("re-provision of a ridden tunnel: %v", err)
	}
}

func TestRerouteUnusedTunnel(t *testing.T) {
	net, speakers := network(t, false, diamond...)
	tunnel := ldp.SetupRequest{ID: "tun", Path: []string{"a", "b", "d"}, Bandwidth: 1e6, Tunnel: true}
	must(t, signaling.Establish(net, speakers, tunnel))
	tunnel.Path = []string{"a", "c", "d"}
	must(t, provision(net, speakers, tunnel))
	if l := info(t, speakers["a"], "tun"); strings.Join(l.Route, "") != "acd" {
		t.Errorf("tunnel runs %v, want a-c-d", l.Route)
	}
	if r := reservations(net); r["a->b"] != 0 || r["a->c"] != 1e6 {
		t.Errorf("reservations %v: the old tunnel's leaked or the new one's missing", r)
	}
}

// TestRerouteWithCSPF ties the pieces together: CSPF computes a repair
// path around a failed node, and the re-provision installs it.
func TestRerouteWithCSPF(t *testing.T) {
	net, speakers := network(t, false, diamond...)
	req := ldp.SetupRequest{ID: "l", FEC: fec, Path: []string{"a", "b", "d"}}
	must(t, signaling.Establish(net, speakers, req))
	repair, err := net.Topo.CSPF(te.PathRequest{From: "a", To: "d", ExcludeNodes: map[string]bool{"b": true}})
	must(t, err)
	req.Path = repair
	must(t, provision(net, speakers, req))
	if at, _, via := send(net, "a", dst); at != "d" || via["b"] {
		t.Errorf("repair path delivered at %q via %v, want around b", at, via)
	}
}
