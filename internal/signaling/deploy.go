package signaling

import (
	"fmt"
	"sort"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/router"
)

// Deploy builds and starts a speaker on every router of an in-process
// network, sharing its simulator clock and TE topology. The node name
// table is the sorted router-name list — the same NodeID assignment the
// transport layer derives from a scenario. Distributed deployments
// construct their single local speaker directly instead.
func Deploy(net *router.Network, opts ...Option) (map[string]*Speaker, error) {
	names := make([]string, 0, len(net.Routers))
	for name := range net.Routers {
		names = append(names, name)
	}
	sort.Strings(names)
	speakers := make(map[string]*Speaker, len(names))
	for _, name := range names {
		sp, err := New(net.Routers[name], net.Topo, net.Sim, names, name, opts...)
		if err != nil {
			return nil, err
		}
		speakers[name] = sp
	}
	for _, name := range names {
		speakers[name].Start()
	}
	return speakers, nil
}

// establishStep is how far Establish advances the simulator between
// checks for completion, in simulated seconds.
const establishStep = 0.001

// Establish is the in-process driver: it sets up every request at the
// speaker of its ingress (Path[0]) and advances the network's simulator
// until each has established or failed, returning the first error.
// Tunnels go first and are established before any other request is
// sent, so an LSP riding one finds it in place at its head. The
// speakers keep running; a static scenario calls Stop on them next, so
// no keepalive shares the links with its traffic. The links must be
// simulated: over sockets the sessions run in wall-clock time, and the
// caller signals with Setup while RunReal drives the network.
func Establish(net *router.Network, speakers map[string]*Speaker, reqs ...ldp.SetupRequest) error {
	var tunnels, lsps []ldp.SetupRequest
	for _, req := range reqs {
		if req.Tunnel {
			tunnels = append(tunnels, req)
		} else {
			lsps = append(lsps, req)
		}
	}
	for _, batch := range [][]ldp.SetupRequest{tunnels, lsps} {
		pending := len(batch)
		var first error
		for _, req := range batch {
			if len(req.Path) == 0 {
				return fmt.Errorf("signaling: LSP %q has no path", req.ID)
			}
			sp, ok := speakers[req.Path[0]]
			if !ok {
				return fmt.Errorf("signaling: LSP %q: no speaker at %q", req.ID, req.Path[0])
			}
			err := sp.Setup(req, func(err error) {
				pending--
				if err != nil && first == nil {
					first = err
				}
			})
			if err != nil {
				return fmt.Errorf("signaling: LSP %q: %w", req.ID, err)
			}
		}
		for pending > 0 {
			if net.Sim.Pending() == 0 {
				return fmt.Errorf("signaling: %d LSPs neither established nor failed", pending)
			}
			net.Sim.RunUntil(net.Sim.Now() + establishStep)
		}
		if first != nil {
			return first
		}
	}
	return nil
}
