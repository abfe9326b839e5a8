package signaling

import (
	"fmt"
	"math/rand"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/te"
)

// TestSpeakerLabelBlocksAreDisjoint is the allocator's property: on a
// Deployed 32-node ring, whatever LSPs are signalled, every label a
// node hands out lies in its own block and no two nodes ever hand out
// the same label; and a node whose block runs out refuses the next LSP
// with no state left anywhere.
func TestSpeakerLabelBlocksAreDisjoint(t *testing.T) {
	const n = 32
	ring := func(t *testing.T) (*router.Network, map[string]*Speaker) {
		t.Helper()
		var nodes []router.NodeSpec
		var links []router.LinkSpec
		for i := 0; i < n; i++ {
			nodes = append(nodes, router.NodeSpec{Name: fmt.Sprintf("r%02d", i)})
			links = append(links, router.LinkSpec{A: fmt.Sprintf("r%02d", i), B: fmt.Sprintf("r%02d", (i+1)%n), RateBPS: 1e9, Delay: 0.0005, Metric: 1})
		}
		net, err := router.Build(nodes, links)
		if err != nil {
			t.Fatal(err)
		}
		speakers, err := Deploy(net, WithUntil(5))
		if err != nil {
			t.Fatal(err)
		}
		return net, speakers
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			net, speakers := ring(t)
			rng := rand.New(rand.NewSource(seed))
			var reqs []ldp.SetupRequest
			for k := 0; k < 64; k++ {
				from, to := rng.Intn(n), rng.Intn(n)
				if from == to {
					continue
				}
				path, err := net.Topo.CSPF(te.PathRequest{From: fmt.Sprintf("r%02d", from), To: fmt.Sprintf("r%02d", to)})
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, ldp.SetupRequest{ID: fmt.Sprint("l", k), FEC: ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, byte(k)), PrefixLen: 32}, Path: path, PHP: rng.Intn(2) == 0 && len(path) >= 3})
			}
			if err := Establish(net, speakers, reqs...); err != nil {
				t.Fatal(err)
			}
			const block = (label.MaxLabel + 1 - label.FirstUnreserved) / n
			owner := map[label.Label]string{}
			for name, sp := range speakers {
				for _, info := range sp.List() {
					l := label.Label(info.InLabel)
					if info.Role == "ingress" || l == label.ImplicitNull {
						continue
					}
					if l < sp.end-block || l >= sp.end {
						t.Errorf("%s allocated %d outside its block [%d, %d)", name, l, sp.end-block, sp.end)
					}
					if prev, dup := owner[l]; dup {
						t.Errorf("label %d allocated by %s and %s", l, prev, name)
					}
					owner[l] = name
				}
			}
			if len(owner) == 0 {
				t.Fatal("no labels allocated")
			}
		})
	}

	t.Run("exhaustion", func(t *testing.T) {
		net, speakers := ring(t)
		transit := speakers["r01"]
		transit.next = transit.end - 1
		path := []string{"r00", "r01", "r02"}
		first := ldp.SetupRequest{ID: "first", FEC: ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, 1), PrefixLen: 32}, Path: path}
		if err := Establish(net, speakers, first); err != nil {
			t.Fatal(err)
		}
		second := first
		second.ID, second.FEC.Dst = "second", packet.AddrFrom(10, 0, 0, 2)
		if err := Establish(net, speakers, second); err == nil {
			t.Fatal("setup past the end of r01's block succeeded")
		}
		net.Sim.RunUntil(net.Sim.Now() + 0.05)
		// The ingress keeps the base pending for a later re-signal; no
		// node keeps a generation, a label or a table entry for it.
		for name, sp := range speakers {
			for _, info := range sp.List() {
				if info.ID == "second" && !info.Pending {
					t.Errorf("%s keeps state for the refused LSP: %+v", name, info)
				}
			}
			tr, _ := net.Router(name).Tables()
			if want := map[string]int{"r00": 1}[name]; len(tr.FECEntries()) != want {
				t.Errorf("%s holds FTN entries %+v, want %d", name, tr.FECEntries(), want)
			}
		}
		if tr, _ := net.Router("r01").Tables(); len(tr.ILMEntries()) != 1 {
			t.Errorf("r01 holds ILM entries %+v, want the first LSP's only", tr.ILMEntries())
		}
		if l := transit.lsps["first#1"]; l == nil || l.inLabel != transit.end-1 {
			t.Errorf("first LSP at r01: %+v, want the block's last label, %d", l, transit.end-1)
		}
	})
}
