package main

import (
	"fmt"
	"sort"
	"time"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/te"
)

// control_ring runs the control plane alone: a 32-router ring on
// simulated links, wire-level label signaling on every node. One round,
// on a freshly built ring: sessions up, 256 LSPs (8 per ingress to its
// antipode) signalled and established, one link failed, every LSP that
// crossed it re-established the other way round, everything torn down.
// An operation is one LSP established or rerouted. Latencies are
// simulated time and repeat exactly for a seed; ops/s is host time.

const (
	ringHorizon = 30.0  // simulated seconds a round may take
	ringStep    = 0.001 // simulated seconds between condition checks
)

// ringRound is what one round measured. The simulated figures must be
// identical in every round of a run.
type ringRound struct {
	host     time.Duration
	ops      int
	reroutes int

	// simulated
	sessionsUpMs float64
	setupUs      []float64 // per LSP, Setup -> established
	failoverMs   float64
	msgs         uint64

	cspf seamTotal
}

// simFigures is the round's simulated outcome as one comparable value.
func (r *ringRound) simFigures() string {
	s := sortedCopy(r.setupUs)
	return fmt.Sprintf("up=%.9f p50=%.9f p99=%.9f max=%.9f failover=%.9f msgs=%d reroutes=%d",
		r.sessionsUpMs, percentile(s, 0.5), percentile(s, 0.99), s[len(s)-1], r.failoverMs, r.msgs, r.reroutes)
}

func crosses(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}

// runRing plays one round. tr, when set, gets one span per phase and
// every CSPF call is timed.
func runRing(plan *ringPlan, tr *tracer, round uint64) (*ringRound, error) {
	t0 := time.Now()
	res := &ringRound{}
	n := plan.Nodes
	nodes := make([]router.NodeSpec, n)
	links := make([]router.LinkSpec, n)
	for i := 0; i < n; i++ {
		nodes[i] = router.NodeSpec{Name: ringNode(i), RouterType: lsm.LER}
		// The queue must hold the withdraw burst a failure sets off (one
		// message per crossing LSP, over 100 here): signaling has no
		// retransmit for withdraws, and the default 64-packet queue
		// tail-drops the excess, stranding those LSPs for good.
		links[i] = router.LinkSpec{
			A: ringNode(i), B: ringNode((i + 1) % n),
			RateBPS: 1e9, Delay: plan.Delay[i], Metric: 1, QueueCap: 1024,
		}
	}
	net, err := router.Build(nodes, links)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	speakers, err := signaling.Deploy(net, signaling.WithUntil(ringHorizon))
	if err != nil {
		return nil, err
	}
	span := func(name string, start time.Time) {
		if tr != nil {
			tr.record(name, "", round, tr.at(start), tr.now())
		}
	}
	runUntil := func(what string, cond func() bool) error {
		for t := net.Sim.Now(); t < ringHorizon; t += ringStep {
			net.Sim.RunUntil(t)
			if cond() {
				return nil
			}
		}
		return fmt.Errorf("control_ring: %s not reached in %.0f simulated seconds", what, ringHorizon)
	}

	phaseStart := time.Now()
	upAt, ups := -1.0, 0
	for _, sp := range speakers {
		sp.OnSessionUp = func(string) {
			if ups++; ups == 2*n {
				upAt = net.Sim.Now()
			}
		}
	}
	if err := runUntil("session mesh", func() bool { return upAt >= 0 }); err != nil {
		return nil, err
	}
	res.sessionsUpMs = upAt * 1e3
	span("signaling.sessions_up", phaseStart)

	// Establishment. established maps LSP id to its current path; the
	// callback fires again, with the new path, after a reroute.
	phaseStart = time.Now()
	total := n * plan.PerNode
	established := make(map[string][]string, total)
	reestablished, backAt := 0, -1.0
	failed := false
	for _, sp := range speakers {
		sp.OnEstablished = func(id string, p []string) {
			established[id] = append([]string(nil), p...)
			if failed {
				reestablished++
				backAt = net.Sim.Now()
			}
		}
	}
	var setupErr error
	for i := 0; i < n; i++ {
		from, to := ringNode(i), ringNode((i+n/2)%n)
		c0 := time.Now()
		path, err := net.Topo.CSPF(te.PathRequest{From: from, To: to})
		res.cspf.add(time.Since(c0).Nanoseconds(), 1)
		if err != nil {
			return nil, err
		}
		for k := 0; k < plan.PerNode; k++ {
			at := net.Sim.Now()
			err := speakers[from].Setup(ldp.SetupRequest{
				ID:   lspID(i, k),
				FEC:  ldp.FEC{Dst: packet.AddrFrom(10, byte(i), byte(k), 1), PrefixLen: 32},
				Path: path,
			}, func(err error) {
				if err != nil && setupErr == nil {
					setupErr = err
				}
				res.setupUs = append(res.setupUs, (net.Sim.Now()-at)*1e6)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if err := runUntil("256 LSPs established", func() bool { return len(res.setupUs) >= total }); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("control_ring: %w", setupErr)
	}
	span("signaling.establish", phaseStart)

	// Failure: every LSP crossing the failed link must come back on the
	// long way round.
	phaseStart = time.Now()
	a, b := ringNode(plan.FailLink), ringNode((plan.FailLink+1)%n)
	var crossing []string
	for id, p := range established {
		if crosses(p, a, b) {
			crossing = append(crossing, id)
		}
	}
	sort.Strings(crossing)
	res.reroutes = len(crossing)
	failed = true
	if err := net.SetLinkDown(a, b, true); err != nil {
		return nil, err
	}
	failAt := net.Sim.Now()
	err = runUntil("reroute of crossing LSPs", func() bool {
		if reestablished < len(crossing) {
			return false
		}
		for _, id := range crossing {
			if crosses(established[id], a, b) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res.failoverMs = (backAt - failAt) * 1e3
	span("signaling.failover", phaseStart)

	// Teardown from every ingress, then let the releases propagate.
	phaseStart = time.Now()
	for i := 0; i < n; i++ {
		for k := 0; k < plan.PerNode; k++ {
			if err := speakers[ringNode(i)].Teardown(lspID(i, k)); err != nil {
				return nil, err
			}
		}
	}
	net.Sim.RunUntil(net.Sim.Now() + 0.1)
	for name, sp := range speakers {
		if left := len(sp.List()); left != 0 {
			return nil, fmt.Errorf("control_ring: %s still holds %d LSP generations after teardown", name, left)
		}
	}
	for _, sp := range speakers {
		res.msgs += sp.Stats.Tx
		sp.Stop()
	}
	span("signaling.teardown", phaseStart)

	res.ops = total + res.reroutes
	res.host = time.Since(t0)
	return res, nil
}
