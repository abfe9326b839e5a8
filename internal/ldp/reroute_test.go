package ldp

import (
	"errors"
	"testing"

	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
)

// diamondNet builds a-b-d / a-c-d with forwarders everywhere.
func diamondNet(t *testing.T) (*Manager, map[string]*swmpls.Forwarder) {
	t.Helper()
	topo := te.NewTopology()
	for _, n := range []string{"a", "b", "c", "d"} {
		topo.AddNode(n)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}} {
		if err := topo.AddDuplex(pair[0], pair[1], te.LinkAttrs{CapacityBPS: 10e6, Metric: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(topo)
	fwds := make(map[string]*swmpls.Forwarder)
	for _, n := range []string{"a", "b", "c", "d"} {
		f := swmpls.New()
		fwds[n] = f
		if err := m.Register(n, f); err != nil {
			t.Fatal(err)
		}
	}
	return m, fwds
}

func TestRerouteMovesTraffic(t *testing.T) {
	m, fwds := diamondNet(t)
	if _, err := m.SetupLSP(SetupRequest{
		ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d"}, Bandwidth: 2e6,
	}); err != nil {
		t.Fatal(err)
	}
	// Traffic follows a-b-d.
	last, res, visited := walk(t, fwds, "a", packet.New(1, dst, 64, nil))
	if res.Action != swmpls.Deliver || last != "d" || visited[1] != "b" {
		t.Fatalf("pre-reroute: %v via %v", res, visited)
	}

	if err := m.Reroute("l", []string{"a", "c", "d"}); err != nil {
		t.Fatal(err)
	}

	// Traffic now follows a-c-d end to end.
	last, res, visited = walk(t, fwds, "a", packet.New(1, dst, 64, nil))
	if res.Action != swmpls.Deliver || last != "d" {
		t.Fatalf("post-reroute: %v via %v", res, visited)
	}
	if visited[1] != "c" {
		t.Errorf("post-reroute path %v, want via c", visited)
	}

	// The old path's state is gone: b has no label bindings, and the
	// old reservation on a-b is released while a-c holds the new one.
	if fwds["b"].ILMSize() != 0 {
		t.Errorf("router b still holds %d ILM entries", fwds["b"].ILMSize())
	}
	ab, _ := m.topo.Link("a", "b")
	ac, _ := m.topo.Link("a", "c")
	if ab.ReservedBPS != 0 || ac.ReservedBPS != 2e6 {
		t.Errorf("reservations: a-b=%.0f a-c=%.0f", ab.ReservedBPS, ac.ReservedBPS)
	}
	lsp, ok := m.LSP("l")
	if !ok || lsp.Path[1] != "c" {
		t.Errorf("registry path = %v", lsp.Path)
	}
}

func TestRerouteFailureLeavesOldPathIntact(t *testing.T) {
	m, fwds := diamondNet(t)
	if _, err := m.SetupLSP(SetupRequest{
		ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}, Bandwidth: 2e6,
	}); err != nil {
		t.Fatal(err)
	}
	// Saturate a-c so the reroute cannot reserve.
	if err := m.topo.Reserve([]string{"a", "c"}, 10e6); err != nil {
		t.Fatal(err)
	}
	err := m.Reroute("l", []string{"a", "c", "d"})
	if !errors.Is(err, te.ErrBandwidth) {
		t.Fatalf("err = %v, want bandwidth failure", err)
	}
	// Old path still forwards.
	last, res, _ := walk(t, fwds, "a", packet.New(1, dst, 64, nil))
	if res.Action != swmpls.Deliver || last != "d" {
		t.Fatalf("old path broken after failed reroute: %v at %s", res, last)
	}
	if _, ok := m.LSP("l"); !ok {
		t.Error("LSP vanished from the registry")
	}
}

func TestRerouteUnknownAndInUse(t *testing.T) {
	m, _ := diamondNet(t)
	if err := m.Reroute("ghost", []string{"a", "b"}); !errors.Is(err, ErrUnknownLSP) {
		t.Errorf("reroute ghost: %v", err)
	}
	if _, err := m.SetupTunnel("tun", []string{"a", "b", "d"}, 0); err != nil {
		t.Fatal(err)
	}
	// The rider enters the tunnel after one real hop (an ingress cannot
	// start inside a tunnel).
	if _, err := m.SetupLSP(SetupRequest{ID: "rider", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"c", "a", "d"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reroute("tun", []string{"a", "c", "d"}); !errors.Is(err, ErrTunnelInUse) {
		t.Errorf("reroute of in-use tunnel: %v", err)
	}
}

func TestRerouteUnusedTunnel(t *testing.T) {
	m, _ := diamondNet(t)
	if _, err := m.SetupTunnel("tun", []string{"a", "b", "d"}, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := m.Reroute("tun", []string{"a", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	lsp, ok := m.LSP("tun")
	if !ok || !lsp.Tunnel || lsp.Path[1] != "c" {
		t.Errorf("rerouted tunnel = %+v", lsp)
	}
	ab, _ := m.topo.Link("a", "b")
	if ab.ReservedBPS != 0 {
		t.Errorf("old tunnel reservation leaked: %v", ab.ReservedBPS)
	}
}

// TestRerouteWithCSPF ties the pieces together: CSPF computes a repair
// path around an excluded node, Reroute installs it.
func TestRerouteWithCSPF(t *testing.T) {
	m, fwds := diamondNet(t)
	if _, err := m.SetupLSP(SetupRequest{
		ID: "l", FEC: FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"},
	}); err != nil {
		t.Fatal(err)
	}
	// Node b fails: compute a path avoiding it and reroute.
	repair, err := m.topo.CSPF(te.PathRequest{From: "a", To: "d", ExcludeNodes: map[string]bool{"b": true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reroute("l", repair); err != nil {
		t.Fatal(err)
	}
	_, res, visited := walk(t, fwds, "a", packet.New(1, dst, 64, nil))
	if res.Action != swmpls.Deliver {
		t.Fatalf("repair path broken: %v via %v", res, visited)
	}
	for _, hop := range visited {
		if hop == "b" {
			t.Errorf("repair path still crosses the failed node: %v", visited)
		}
	}
}
