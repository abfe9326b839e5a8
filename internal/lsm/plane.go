package lsm

import (
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// Drop maps an LSM discard onto the software forwarder's drop taxonomy
// — the same mapping the embedded device applies: a failed search is a
// missing label binding, and an operation the verifier rejects
// manifests as a stack the packet cannot legally grow.
func (d DiscardReason) Drop() swmpls.DropReason {
	switch d {
	case DiscardNotFound:
		return swmpls.DropNoLabel
	case DiscardTTLExpired:
		return swmpls.DropTTLExpired
	case DiscardInconsistent:
		return swmpls.DropStackOverflow
	default:
		return swmpls.DropNone
	}
}

// ProcessPacket runs one packet through the modifier under the unified
// plane contract (plane.Plane): the packet's stack is loaded via user
// pushes, one Update applies the stored label program, and the modified
// stack is spliced back — the device's data path without its interfaces
// or next-hop tables. Because the modifier holds no next hops, Forward
// results carry an empty NextHop; wrap the modifier in a device when
// next-hop selection matters. Telemetry attached with SetTelemetry is
// recorded by Update itself.
func (m *Behavioral) ProcessPacket(p *packet.Packet) swmpls.Result {
	wasLabelled := p.Labelled()
	var oldTop label.Entry
	if wasLabelled {
		oldTop, _ = p.Stack.Top()
	}
	m.stack = p.Stack
	res := m.Update(UpdateRequest{PacketID: p.Identifier(), TTLIn: p.Header.TTL})
	if res.Discarded() {
		drop := res.Discard.Drop()
		// An unlabelled packet with no level-1 match (or rejected by an
		// LSR) has no MPLS route rather than a bad label.
		if !wasLabelled && (res.Discard == DiscardNotFound || res.Discard == DiscardInconsistent) {
			drop = swmpls.DropNoRoute
		}
		return swmpls.Result{Action: swmpls.Drop, Drop: drop}
	}
	p.Stack = m.stack
	if res.Op == label.OpPop && p.Stack.Empty() {
		// End of the LSP: write the decremented TTL back to the IP header.
		ttl := oldTop.TTL
		if ttl > 0 {
			ttl--
		}
		p.Header.TTL = ttl
		return swmpls.Result{Action: swmpls.Deliver, Op: res.Op}
	}
	return swmpls.Result{Action: swmpls.Forward, Op: res.Op}
}
