package signaling

import (
	"strings"
	"testing"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
)

// TestProvisionFreshAndList provisions a brand-new LSP through the
// management surface and checks every node's List view of it.
func TestProvisionFreshAndList(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.AddrFrom(10, 0, 0, 9)
	net.Sim.RunUntil(0.3)
	if err := speakers["a"].Provision(ldp.SetupRequest{
		ID:   "m1",
		FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(0.6)

	la := speakers["a"].List()
	if len(la) != 1 {
		t.Fatalf("ingress List = %d LSPs, want 1", len(la))
	}
	got := la[0]
	if got.ID != "m1" || got.Gen != 1 || got.Role != "ingress" || !got.Established || got.Pending {
		t.Errorf("ingress view = %+v", got)
	}
	if got.FEC != "10.0.0.9/32" {
		t.Errorf("FEC = %q, want 10.0.0.9/32", got.FEC)
	}
	if strings.Join(got.Route, ",") != "a,b,d" {
		t.Errorf("route = %v", got.Route)
	}
	lb := speakers["b"].List()
	if len(lb) != 1 || lb[0].Role != "transit" {
		t.Errorf("transit view = %+v", lb)
	}
	ld := speakers["d"].List()
	if len(ld) != 1 || ld[0].Role != "egress" {
		t.Errorf("egress view = %+v", ld)
	}
}

// TestProvisionMakeBeforeBreak re-provisions a live LSP from a-b-d onto
// the backup a-c-d in the middle of a 2 kpps flow. The generation bumps,
// the old path keeps forwarding until the new one maps and drains before
// its release — so every packet arrives, in order — and the old
// generation's transit state goes away.
func TestProvisionMakeBeforeBreak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []router.NodeSpec
	}{{"software", softwareNodes}, {"hardware", hardwareNodes}} {
		t.Run(tc.name, func(t *testing.T) {
			net := diamondOf(t, tc.nodes)
			speakers, err := Deploy(net, WithUntil(2))
			if err != nil {
				t.Fatal(err)
			}
			dst := packet.AddrFrom(10, 0, 0, 9)
			req := ldp.SetupRequest{ID: "m2", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}}
			net.Sim.RunUntil(0.3)
			if err := speakers["a"].Provision(req, nil); err != nil {
				t.Fatal(err)
			}
			net.Sim.RunUntil(0.6)

			delivered, inversions := 0, 0
			var lastSeq uint64
			net.Router("d").OnDeliver = func(p *packet.Packet) {
				delivered++
				if p.SeqNo <= lastSeq {
					inversions++
				}
				lastSeq = p.SeqNo
			}
			for i := 0; i < 400; i++ {
				seq := uint64(i + 1)
				net.Sim.Schedule(float64(i)*0.0005, func() {
					p := packet.New(1, dst, 64, make([]byte, 64))
					p.Header.FlowID = 7
					p.SeqNo = seq
					net.Router("a").Inject(p)
				})
			}
			// Operator-driven re-provision onto the expensive path, mid-flow.
			net.Sim.Schedule(0.1, func() {
				req.Path = []string{"a", "c", "d"}
				if err := speakers["a"].Provision(req, nil); err != nil {
					t.Error(err)
				}
			})
			net.Sim.RunUntil(1.2) // flow, map and drain delay

			if delivered != 400 || inversions != 0 {
				t.Errorf("delivered %d of 400 with %d inversions, want all in order", delivered, inversions)
			}
			la := speakers["a"].List()
			if len(la) != 1 || la[0].Gen != 2 || strings.Join(la[0].Route, ",") != "a,c,d" || !la[0].Established {
				t.Errorf("ingress List = %+v, want generation 2 established on a,c,d", la)
			}
			// The superseded generation must be gone from the old transit hop.
			if lb := speakers["b"].List(); len(lb) != 0 {
				t.Errorf("old transit b still holds %+v", lb)
			}
			if lc := speakers["c"].List(); len(lc) != 1 {
				t.Errorf("new transit c holds %+v, want 1 LSP", lc)
			}
		})
	}
}

// TestTeardownReleasesEveryHop tears a live LSP down and checks label
// state evaporates on all three hops and the id becomes reusable.
func TestTeardownReleasesEveryHop(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.AddrFrom(10, 0, 0, 9)
	net.Sim.RunUntil(0.3)
	req := ldp.SetupRequest{
		ID:   "m3",
		FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d"},
	}
	if err := speakers["a"].Provision(req, nil); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(0.6)
	if err := speakers["a"].Teardown("m3"); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(0.9)
	for _, n := range []string{"a", "b", "d"} {
		if l := speakers[n].List(); len(l) != 0 {
			t.Errorf("%s still holds %+v after teardown", n, l)
		}
	}
	if err := speakers["a"].Teardown("m3"); err == nil {
		t.Error("second teardown of the same id succeeded")
	}
	// The base id is free again.
	if err := speakers["a"].Provision(req, nil); err != nil {
		t.Errorf("re-provision after teardown: %v", err)
	}
}

// TestProvisionValidation exercises the request checks shared with
// Setup.
func TestProvisionValidation(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, 9), PrefixLen: 32}
	cases := []struct {
		name string
		req  ldp.SetupRequest
	}{
		{"empty id", ldp.SetupRequest{FEC: dst, Path: []string{"a", "b"}}},
		{"short path", ldp.SetupRequest{ID: "x", FEC: dst, Path: []string{"a"}}},
		{"wrong head", ldp.SetupRequest{ID: "x", FEC: dst, Path: []string{"b", "d"}}},
		{"unknown node", ldp.SetupRequest{ID: "x", FEC: dst, Path: []string{"a", "nope"}}},
		{"php too short", ldp.SetupRequest{ID: "x", FEC: dst, Path: []string{"a", "b"}, PHP: true}},
	}
	for _, c := range cases {
		if err := speakers["a"].Provision(c.req, nil); err == nil {
			t.Errorf("%s: provision accepted", c.name)
		}
	}
}

// TestSessionsReport checks the Sessions dump tracks convergence.
func TestSessionsReport(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(1))
	if err != nil {
		t.Fatal(err)
	}
	before := speakers["a"].Sessions()
	if len(before) != 2 {
		t.Fatalf("a has %d sessions, want 2", len(before))
	}
	for _, s := range before {
		if s.Up {
			t.Errorf("session to %s up before any hello", s.Peer)
		}
	}
	net.Sim.RunUntil(0.5)
	for _, s := range speakers["a"].Sessions() {
		if !s.Up {
			t.Errorf("session to %s is %s, want operational", s.Peer, s.State)
		}
	}
}

// TestPathCSPF checks the management surface's path computation honours
// metrics and rejects unknown egresses.
func TestPathCSPF(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := speakers["a"].Path("d", 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p, ",") != "a,b,d" {
		t.Errorf("CSPF path = %v, want the cheap a,b,d", p)
	}
	if _, err := speakers["a"].Path("nope", 0); err == nil {
		t.Error("Path to unknown node succeeded")
	}
}
