package dataplane

import (
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// Egress is the engine's batch egress contract — the batch-first
// replacement for the old per-packet deliver callback. Each shard
// worker accumulates processed packets into per-(shard, next-hop)
// staging rings and hands them to the sink a batch at a time, so a
// sink backed by a wire rides its SendBatch path with no per-packet
// interface crossing.
//
// All three methods run on worker goroutines, or on the caller's inside
// Process — concurrently across shards, sequentially (and in per-flow
// order) within one — so an implementation must be safe for concurrent
// use. Every slice argument is shard-owned and reused after the call
// returns: a sink that needs the packets beyond the call must copy the
// slice. The engine never touches a packet again once it handed it
// over, but a packet that came in through Process still belongs to
// Process's caller, who may reuse it once Process returns; a sink that
// keeps such a packet must Clone it.
type Egress interface {
	// Flush receives a batch of forwarded packets, all bound for the
	// same next hop, in processing order.
	Flush(nextHop string, ps []*packet.Packet)
	// Deliver receives packets whose label stack emptied here — the
	// IP-side handoff at the LSP egress.
	Deliver(ps []*packet.Packet)
	// Discard receives packets the engine dropped, with reasons[i]
	// explaining ps[i]. The engine has already counted the drops in its
	// own snapshot and reason taxonomy; the sink sees them so node-level
	// accounting (a router's per-reason counters) can stay consistent.
	Discard(ps []*packet.Packet, reasons []swmpls.DropReason)
}

// Egress flush triggers, indexed into shard.egFlush.
const (
	egressTriggerSize  = iota // a staging ring reached the flush size, or a Process batch ended
	egressTriggerTimer        // the flush interval expired with the queue idle
	egressTriggerClose        // the engine closed and the rings drained
	numEgressTriggers
)

// egressRing is one (shard, next-hop) staging ring. It is owned by
// exactly one worker — per-shard staging is what makes the whole pump
// lock-free — and its backing array is reused across flushes.
type egressRing struct {
	nextHop string
	ps      []*packet.Packet
}

// egressStage is a worker's private staging state: forwarded packets
// ring per next hop, delivered and discarded packets batch in their
// own buffers. Nothing here is shared; the only cross-thread artifacts
// are the shard's atomic flush counters and batch-size histogram.
type egressStage struct {
	s       *shard
	flushN  int
	rings   map[string]*egressRing
	order   []*egressRing // flush order, avoids map iteration
	deliver []*packet.Packet
	drops   []*packet.Packet
	reasons []swmpls.DropReason
	pending int // total packets staged across all buffers
}

func newEgressStage(s *shard, flushN int) *egressStage {
	return &egressStage{
		s:      s,
		flushN: flushN,
		rings:  make(map[string]*egressRing),
	}
}

// stage routes one processed packet into the right staging buffer and
// flushes that buffer if it reached the flush size (never, when flushN
// is 0: Process's stage grows to its largest batch and flushes at the
// end).
func (st *egressStage) stage(sink Egress, p *packet.Packet, res swmpls.Result) {
	switch res.Action {
	case swmpls.Forward:
		r := st.rings[res.NextHop]
		if r == nil {
			r = &egressRing{nextHop: res.NextHop, ps: make([]*packet.Packet, 0, st.flushN)}
			st.rings[res.NextHop] = r
			st.order = append(st.order, r)
		}
		r.ps = append(r.ps, p)
		st.pending++
		if st.flushN > 0 && len(r.ps) >= st.flushN {
			st.flushRing(sink, r, egressTriggerSize)
		}
	case swmpls.Deliver:
		st.deliver = append(st.deliver, p)
		st.pending++
		if st.flushN > 0 && len(st.deliver) >= st.flushN {
			st.flushDeliver(sink, egressTriggerSize)
		}
	default:
		st.drops = append(st.drops, p)
		st.reasons = append(st.reasons, res.Drop)
		st.pending++
		if st.flushN > 0 && len(st.drops) >= st.flushN {
			st.flushDrops(sink, egressTriggerSize)
		}
	}
}

func (st *egressStage) flushRing(sink Egress, r *egressRing, trigger int) {
	if len(r.ps) == 0 {
		return
	}
	if sink != nil {
		sink.Flush(r.nextHop, r.ps)
		st.s.observeEgress(len(r.ps), trigger)
	}
	st.pending -= len(r.ps)
	r.ps = r.ps[:0]
}

func (st *egressStage) flushDeliver(sink Egress, trigger int) {
	if len(st.deliver) == 0 {
		return
	}
	if sink != nil {
		sink.Deliver(st.deliver)
		st.s.observeEgress(len(st.deliver), trigger)
	}
	st.pending -= len(st.deliver)
	st.deliver = st.deliver[:0]
}

func (st *egressStage) flushDrops(sink Egress, trigger int) {
	if len(st.drops) == 0 {
		return
	}
	if sink != nil {
		sink.Discard(st.drops, st.reasons)
		st.s.observeEgress(len(st.drops), trigger)
	}
	st.pending -= len(st.drops)
	st.drops = st.drops[:0]
	st.reasons = st.reasons[:0]
}

// flushAll empties every staging buffer — the timer and close paths.
// A nil sink (detached mid-run) just releases the references; the
// packets were already accounted when they were processed.
func (st *egressStage) flushAll(sink Egress, trigger int) {
	for _, r := range st.order {
		st.flushRing(sink, r, trigger)
	}
	st.flushDeliver(sink, trigger)
	st.flushDrops(sink, trigger)
}
