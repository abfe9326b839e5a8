package router

import (
	"fmt"

	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/stats"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/transport"
)

// enginePump binds a router's concurrent dataplane engine to its wires
// as a batch egress sink: the engine stages processed packets into
// per-next-hop rings and flushes them here, whole batches at a time, so
// router egress rides each wire's SendBatch path — one interface
// crossing and (on UDP links) one coalesced syscall burst per batch
// instead of one per packet.
//
// The methods run where the engine forwards: on the socket reader
// inside Engine.Process (FeedTo), or on a shard worker for queued
// Submits. Process's packets are the receiver's reused storage, so a
// packet that outlives the call — queued on a simulated link, or handed
// to a control sink or OnDeliver — is cloned here; a UDP link encodes
// synchronously and keeps nothing. Every method takes the network lock,
// which serialises it against the simulator, the serial Receive path
// and stats readers. Engine.Close drains the worker rings through
// Flush, so Network.Close must never be called with the lock held.
type enginePump struct {
	n *Network
	r *Router
	// kept holds the clones a retaining wire takes; guarded by n.mu.
	kept []*packet.Packet
}

// Flush implements dataplane.Egress: one batch of forwarded packets,
// all bound for nextHop. The router's Forwarded counter is merged once
// per batch, not once per packet — the accounting mirrors the egress
// granularity the wire sees.
func (ep *enginePump) Flush(nextHop string, ps []*packet.Packet) {
	ep.n.mu.Lock()
	defer ep.n.mu.Unlock()
	l, ok := ep.r.links[nextHop]
	if !ok {
		for _, p := range ps {
			ep.r.dropNoTrace(p, swmpls.DropNoRoute)
		}
		return
	}
	var batch stats.Counter
	for _, p := range ps {
		batch.Add(p.Size())
	}
	ep.r.Stats.Forwarded.Merge(batch)
	if _, queues := l.(*netsim.Link); queues {
		ep.kept = ep.kept[:0]
		for _, p := range ps {
			ep.kept = append(ep.kept, p.Clone())
		}
		ps = ep.kept
	}
	l.SendBatch(ps)
}

// Deliver implements dataplane.Egress: packets whose stack emptied here
// go through the router's ordinary delivery path (control sinks first,
// then stats and OnDeliver), each as a clone the sinks may keep.
func (ep *enginePump) Deliver(ps []*packet.Packet) {
	ep.n.mu.Lock()
	defer ep.n.mu.Unlock()
	for _, p := range ps {
		ep.r.deliver(p.Clone())
	}
}

// Discard implements dataplane.Egress. The engine already traced the
// discards (its trace ring is attached in pump mode) and counted them
// in its own snapshot; here they land in the router-level counters so
// node accounting stays consistent with the serial path.
func (ep *enginePump) Discard(ps []*packet.Packet, reasons []swmpls.DropReason) {
	ep.n.mu.Lock()
	defer ep.n.mu.Unlock()
	for i, p := range ps {
		ep.r.dropNoTrace(p, reasons[i])
	}
}

// AttachEgressPump switches the named router's engine-backed data plane
// to batch egress: the engine flushes its staging rings straight onto
// the router's wires instead of the router driving the plane
// packet-at-a-time through Receive. Pair it with FeedTo so each socket
// reader forwards its own batches — then the whole datapath runs to
// completion on one goroutine: recvmmsg → guard → Engine.Process
// (lookup, label op, staging) → SendBatch → sendmmsg.
//
// It errors when the node's plane is not engine-backed. Attach before
// opening listeners so the first arrival already finds the pump.
func (n *Network) AttachEgressPump(name string) error {
	r := n.Router(name)
	ep, ok := r.plane.(*EnginePlane)
	if !ok {
		return fmt.Errorf("router: node %q has no engine data plane to pump (plane %T)", name, r.plane)
	}
	r.pumped = true
	// In pump mode the engine is the one applying label operations on its
	// workers, so it owns the per-operation trace; drop counters stay at
	// the router level (the pump's Discard), exactly one increment per
	// packet either way.
	if r.trace != nil {
		ep.Engine.SetTelemetry(telemetry.Sink{Trace: r.trace, Node: r.name})
	}
	ep.Engine.SetEgress(&enginePump{n: n, r: r})
	return nil
}

// FeedTo returns a transport receive sink that makes the socket reader
// of shard `shard` a forwarding worker of a pumped router. Each packet
// of a batch is classified from the router's lock-free ingress
// snapshot, not by whether it carries a label:
//
//   - Transit — every labelled packet, and every unlabelled packet this
//     router is the LER ingress for (the engine's FTN longest-prefix
//     match and push are the paper's level-1 search keyed by the packet
//     identifier, one circuit with the label levels) — is judged by the
//     ingress guard right here on the socket goroutine and forwarded by
//     Engine.Process on shard `shard`, in place in the receiver's
//     storage: no clone, no queue, and every packet is on its wire (or
//     counted as dropped) before the sink returns. An unlabelled packet
//     that matches no FEC comes back through the pump's Discard and is
//     counted once, at router level, as no-route — exactly what the
//     serial path does.
//   - Local — an unlabelled packet addressed to one of the router's own
//     addresses (signaling sessions, keepalive probes, egress delivery)
//     — takes the serial Receive path under the network lock, after the
//     batch's transit packets. Receive runs the same guard.
//   - A router with an IP fallback table (SetIPTable) keeps all its
//     unlabelled traffic on the serial path: a miss must fall back to
//     hop-by-hop IP forwarding, and the engine would already have traced
//     and counted the discard by the time the pump saw it.
//
// The guard is resolved through the same atomic indirection the
// pre-decode hooks use, and its admission path takes no shared lock, so
// the shards' socket goroutines do not queue on each other; they meet
// only on the network lock the pump takes per flushed batch. Pair
// FeedTo with transport.ListenSharded so the kernel's SO_REUSEPORT hash
// is the only demultiplexer:
//
//	net.AttachEgressPump("b")
//	transport.ListenSharded(addr, eng.Workers(), func(i int) func([]transport.Inbound) {
//		return net.FeedTo("b", i)
//	}, opts...)
//
// It panics when the node's plane is not engine-backed, matching
// Router's unknown-name behaviour: feeding a serial plane by shard is a
// programming error, not a runtime condition.
func (n *Network) FeedTo(name string, shard int) func(batch []transport.Inbound) {
	r := n.Router(name)
	ep, ok := r.plane.(*EnginePlane)
	if !ok {
		panic(fmt.Sprintf("router: FeedTo(%q): plane %T is not engine-backed", name, r.plane))
	}
	eng := ep.Engine
	// Both slices are owned by this sink's socket goroutine and reused
	// across batches. The local packets are set aside before Process
	// runs: it rewrites transit packets in place, and one it popped to an
	// empty stack must not look local to a second classification.
	var fast []*packet.Packet
	var local []transport.Inbound
	return func(batch []transport.Inbound) {
		fast, local = fast[:0], local[:0]
		view := r.ingress.Load()
		guard := n.guard.Load()
		for _, in := range batch {
			if !in.P.Labelled() && view.serial(in.P.Header.Dst) {
				local = append(local, in)
				continue
			}
			if guard != nil && !(*guard).Admit(in.P, in.From) {
				continue
			}
			fast = append(fast, in.P)
		}
		if len(fast) > 0 {
			eng.Process(shard, fast)
		}
		if len(local) > 0 {
			n.mu.Lock()
			for _, in := range local {
				r.Receive(in.P.Clone(), in.From)
			}
			n.mu.Unlock()
		}
	}
}
