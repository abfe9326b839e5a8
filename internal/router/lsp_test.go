package router

import (
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// installLSP programs an LSP's tables by hand, as the signaling speaker
// would: a push at path[0], a swap at every transit and a pop at the
// egress — with php, a pop at the penultimate hop and nothing at the
// egress. The hop into path[i] carries label first+i-1. Installing a
// second path for the same dst replaces the ingress FTN entry, which
// makes the switch make-before-break. remove unprograms the path's ILM
// entries and, with ftn, the ingress entry too (which a newer path may
// own).
func installLSP(t *testing.T, n *Network, dst packet.Addr, path []string, first label.Label, php bool) (remove func(ftn bool)) {
	t.Helper()
	in := func(i int) label.Label { return first + label.Label(i-1) }
	last := len(path) - 1
	if php {
		last-- // the egress receives unlabelled packets
	}
	for i := 1; i <= last; i++ {
		e := swmpls.NHLFE{Op: label.OpPop}
		switch {
		case php && i == last:
			e.NextHop = path[i+1]
		case i < last:
			e = swmpls.NHLFE{NextHop: path[i+1], Op: label.OpSwap, PushLabels: []label.Label{in(i + 1)}}
		}
		if err := n.Router(path[i]).InstallILM(in(i), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Router(path[0]).InstallFEC(dst, 32, swmpls.NHLFE{NextHop: path[1], Op: label.OpPush, PushLabels: []label.Label{in(1)}}); err != nil {
		t.Fatal(err)
	}
	return func(ftn bool) {
		for i := 1; i <= last; i++ {
			n.Router(path[i]).RemoveILM(in(i))
		}
		if ftn {
			n.Router(path[0]).RemoveFEC(dst, 32)
		}
	}
}
