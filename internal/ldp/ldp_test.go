package ldp

import (
	"errors"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
)

var dst = packet.AddrFrom(10, 0, 0, 9)

// testNet builds a linear topology a-b-c-d-e with software forwarders
// registered on every node.
func testNet(t *testing.T) (*Manager, map[string]*swmpls.Forwarder) {
	t.Helper()
	topo := te.NewTopology()
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		topo.AddNode(n)
	}
	for i := 0; i+1 < len(names); i++ {
		if err := topo.AddDuplex(names[i], names[i+1], te.LinkAttrs{CapacityBPS: 10e6, Metric: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(topo)
	fwds := make(map[string]*swmpls.Forwarder)
	for _, n := range names {
		f := swmpls.New()
		fwds[n] = f
		if err := m.Register(n, f); err != nil {
			t.Fatal(err)
		}
	}
	return m, fwds
}

// walk pushes p through the forwarders starting at the ingress,
// following NextHop decisions (with local re-examination on empty
// next hops) until Deliver or Drop, returning the visited routers.
func walk(t *testing.T, fwds map[string]*swmpls.Forwarder, start string, p *packet.Packet) (string, swmpls.Result, []string) {
	t.Helper()
	cur := start
	visited := []string{start}
	for hop := 0; hop < 32; hop++ {
		res := fwds[cur].Forward(p)
		switch res.Action {
		case swmpls.Forward:
			if res.NextHop == "" {
				continue // re-examine locally (tunnel tail)
			}
			cur = res.NextHop
			visited = append(visited, cur)
		default:
			return cur, res, visited
		}
	}
	t.Fatal("packet did not terminate in 32 hops")
	return "", swmpls.Result{}, nil
}

func TestSetupLSPEndToEnd(t *testing.T) {
	m, fwds := testNet(t)
	lsp, err := m.SetupLSP(SetupRequest{
		ID:   "lsp1",
		FEC:  FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lsp.HopLabels) != 3 {
		t.Fatalf("hop labels = %v", lsp.HopLabels)
	}

	p := packet.New(1, dst, 64, []byte("data"))
	last, res, visited := walk(t, fwds, "a", p)
	if res.Action != swmpls.Deliver || last != "d" {
		t.Fatalf("terminated at %s with %+v", last, res)
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
	// 3 label hops: a->b (push), b->c (swap), c->d (swap), popped at d.
	if p.Labelled() {
		t.Error("packet still labelled after egress")
	}
	// Four routers each decrement once: 64 -> 60.
	if p.Header.TTL != 60 {
		t.Errorf("TTL = %d, want 60 (one decrement per router)", p.Header.TTL)
	}
}

func TestDownstreamAllocationMessages(t *testing.T) {
	m, _ := testNet(t)
	if _, err := m.SetupLSP(SetupRequest{ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	// Ordered downstream: the mapping for the last hop (c->b) is sent
	// before the mapping for the first (b->a).
	if len(m.Messages) != 2 {
		t.Fatalf("messages = %v", m.Messages)
	}
	if m.Messages[0].From != "c" || m.Messages[0].To != "b" {
		t.Errorf("first message %+v, want c->b", m.Messages[0])
	}
	if m.Messages[1].From != "b" || m.Messages[1].To != "a" {
		t.Errorf("second message %+v, want b->a", m.Messages[1])
	}
	if m.Messages[0].Label == m.Messages[1].Label {
		t.Error("labels must be distinct")
	}
}

func TestLabelsAreUniqueAcrossLSPs(t *testing.T) {
	m, _ := testNet(t)
	seen := map[label.Label]bool{}
	for i, path := range [][]string{{"a", "b", "c"}, {"c", "d", "e"}, {"a", "b", "c", "d", "e"}} {
		lsp, err := m.SetupLSP(SetupRequest{
			ID:   string(rune('x' + i)),
			FEC:  FEC{Dst: dst + packet.Addr(i), PrefixLen: 32},
			Path: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lsp.HopLabels {
			if l == 0 {
				continue
			}
			if l.Reserved() {
				t.Errorf("allocated reserved label %d", l)
			}
			if seen[l] {
				t.Errorf("label %d allocated twice", l)
			}
			seen[l] = true
		}
	}
}

func TestPHPStripsLabelAtPenultimate(t *testing.T) {
	m, fwds := testNet(t)
	if _, err := m.SetupLSP(SetupRequest{ID: "php", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "c"}, PHP: true}); err != nil {
		t.Fatal(err)
	}
	p := packet.New(1, dst, 64, nil)
	// a pushes; b pops (penultimate) and forwards toward c.
	res := fwds["a"].Forward(p)
	if res.Action != swmpls.Forward || res.NextHop != "b" {
		t.Fatalf("at a: %+v", res)
	}
	res = fwds["b"].Forward(p)
	if res.Action != swmpls.Forward || res.NextHop != "c" {
		t.Fatalf("at b: %+v", res)
	}
	if p.Labelled() {
		t.Error("PHP did not strip the label at the penultimate hop")
	}
	// c receives a plain IP packet; it has no entry and that is fine —
	// delivery is the router's job when dst is local.
}

func TestTunnelHierarchy(t *testing.T) {
	m, fwds := testNet(t)
	// Tunnel b->c->d, then an LSP a->b->(tunnel)->d->e.
	tun, err := m.SetupTunnel("tun", []string{"b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tun.Tunnel {
		t.Error("tunnel flag unset")
	}
	lsp, err := m.SetupLSP(SetupRequest{
		ID:   "inner",
		FEC:  FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d", "e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = lsp

	p := packet.New(1, dst, 64, nil)
	// At a: push inner label.
	if res := fwds["a"].Forward(p); res.NextHop != "b" {
		t.Fatalf("a: %+v", res)
	}
	inner, _ := p.Stack.Top()
	// At b (tunnel head): push tunnel label on top -> depth 2 toward c.
	if res := fwds["b"].Forward(p); res.NextHop != "c" {
		t.Fatalf("b: %+v", res)
	}
	if p.Stack.Depth() != 2 {
		t.Fatalf("inside tunnel depth = %d, want 2 (stack %v)", p.Stack.Depth(), p.Stack)
	}
	below, _ := p.Stack.At(0)
	if below.Label != inner.Label {
		t.Errorf("inner label changed entering the tunnel: %v -> %v", inner.Label, below.Label)
	}
	// At c: swap the tunnel label.
	if res := fwds["c"].Forward(p); res.NextHop != "d" {
		t.Fatalf("c: %+v", res)
	}
	if p.Stack.Depth() != 2 {
		t.Fatalf("depth after tunnel core = %d", p.Stack.Depth())
	}
	// At d (tunnel tail): pop + re-examine + swap inner toward e.
	last, res, _ := walk(t, fwds, "d", p)
	if res.Action != swmpls.Deliver || last != "e" {
		t.Fatalf("terminated at %s with %+v", last, res)
	}
}

func TestTunnelTeardownGuard(t *testing.T) {
	m, _ := testNet(t)
	if _, err := m.SetupTunnel("tun", []string{"b", "c", "d"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "rider", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.TearDown("tun"); !errors.Is(err, ErrTunnelInUse) {
		t.Errorf("tore down a tunnel in use: %v", err)
	}
	if err := m.TearDown("rider"); err != nil {
		t.Fatal(err)
	}
	if err := m.TearDown("tun"); err != nil {
		t.Errorf("teardown after rider removed: %v", err)
	}
}

func TestTearDownRemovesStateAndReleasesBandwidth(t *testing.T) {
	m, fwds := testNet(t)
	if _, err := m.SetupLSP(SetupRequest{ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "c"}, Bandwidth: 4e6}); err != nil {
		t.Fatal(err)
	}
	ab, _ := m.topo.Link("a", "b")
	if ab.ReservedBPS != 4e6 {
		t.Fatalf("reserved = %v", ab.ReservedBPS)
	}
	if err := m.TearDown("l"); err != nil {
		t.Fatal(err)
	}
	ab, _ = m.topo.Link("a", "b")
	if ab.ReservedBPS != 0 {
		t.Errorf("reservation leaked: %v", ab.ReservedBPS)
	}
	p := packet.New(1, dst, 64, nil)
	if res := fwds["a"].Forward(p); res.Drop != swmpls.DropNoRoute {
		t.Errorf("FTN entry leaked: %+v", res)
	}
	if err := m.TearDown("l"); !errors.Is(err, ErrUnknownLSP) {
		t.Errorf("double teardown: %v", err)
	}
}

func TestSetupRejectsBadRequests(t *testing.T) {
	m, _ := testNet(t)
	fec := FEC{Dst: dst, PrefixLen: 32}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a"}}); !errors.Is(err, ErrBadPath) {
		t.Errorf("single-hop path: %v", err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "ghost"}}); !errors.Is(err, ErrUnknownRouter) {
		t.Errorf("unknown router: %v", err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "c"}}); !errors.Is(err, ErrNotAdjacent) {
		t.Errorf("non-adjacent hop: %v", err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "b"}, PHP: true}); !errors.Is(err, ErrBadPath) {
		t.Errorf("PHP on 2 hops: %v", err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "x", FEC: fec, Path: []string{"a", "b", "c"}}); !errors.Is(err, ErrDuplicateLSP) {
		t.Errorf("duplicate id: %v", err)
	}
	if err := m.Register("nowhere", swmpls.New()); !errors.Is(err, ErrUnknownRouter) {
		t.Errorf("register off-topology: %v", err)
	}
}

func TestSetupRollsBackOnBandwidthFailure(t *testing.T) {
	m, fwds := testNet(t)
	// Saturate b-c.
	if err := m.topo.Reserve([]string{"b", "c"}, 10e6); err != nil {
		t.Fatal(err)
	}
	_, err := m.SetupLSP(SetupRequest{ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "c"}, Bandwidth: 1e6})
	if !errors.Is(err, te.ErrBandwidth) {
		t.Fatalf("err = %v, want bandwidth failure", err)
	}
	// Nothing may remain installed or reserved.
	ab, _ := m.topo.Link("a", "b")
	if ab.ReservedBPS != 0 {
		t.Errorf("a-b reservation leaked: %v", ab.ReservedBPS)
	}
	p := packet.New(1, dst, 64, nil)
	if res := fwds["a"].Forward(p); res.Drop != swmpls.DropNoRoute {
		t.Errorf("FTN entry leaked after rollback: %+v", res)
	}
}

func TestTunnelCannotRideTunnel(t *testing.T) {
	m, _ := testNet(t)
	if _, err := m.SetupTunnel("t1", []string{"b", "c", "d"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupTunnel("t2", []string{"a", "b", "d"}, 0); !errors.Is(err, ErrNotAdjacent) {
		t.Errorf("nested tunnel accepted: %v", err)
	}
}

func TestLSPLookup(t *testing.T) {
	m, _ := testNet(t)
	if _, ok := m.LSP("nope"); ok {
		t.Error("found a nonexistent LSP")
	}
	if _, err := m.SetupLSP(SetupRequest{ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if l, ok := m.LSP("l"); !ok || l.ID != "l" {
		t.Error("LSP lookup failed")
	}
}

// TestSetupRefusedOnceLabelSpaceIsExhausted seeds the allocator two
// short of the 20-bit limit and provisions three one-label LSPs: the
// first two take the last two labels, the third is refused with nothing
// installed and no unpackable mapping logged.
func TestSetupRefusedOnceLabelSpaceIsExhausted(t *testing.T) {
	m, fwds := testNet(t)
	m.next = label.MaxLabel - 1
	for i, path := range [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		_, err := m.SetupLSP(SetupRequest{ID: path[0], FEC: FEC{Dst: dst + packet.Addr(i), PrefixLen: 32}, Path: path})
		if refused := errors.Is(err, label.ErrLabelSpaceExhausted); refused != (i == 2) || !refused && err != nil {
			t.Fatalf("LSP %d: err = %v, want only the third refused", i, err)
		}
	}
	if _, ok := m.LSP("c"); ok || fwds["d"].ILMSize() != 0 || len(fwds["c"].FECEntries()) != 0 {
		t.Error("refused LSP left state behind")
	}
	if len(m.Messages) != 2 {
		t.Errorf("mappings logged: %v, want the two that were sent", m.Messages)
	}
	for _, msg := range m.Messages {
		if _, err := (label.Entry{Label: msg.Label}).Pack(); err != nil {
			t.Errorf("mapping %+v does not pack: %v", msg, err)
		}
	}
}
