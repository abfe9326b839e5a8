package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// Everything random in the benchmark comes from here, and from -seed
// alone: tables, packet schedules, link jitter, the failed link. The
// programs under test receive only what these generators produce — no
// workload name and no seed ever crosses into internal/.

// Distinct PCG streams, so that adding a draw to one plan cannot shift
// another plan's numbers.
const (
	streamTables uint64 = iota + 1
	streamSchedule
	streamMix
	streamLSM
	streamRing
	streamWriter
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// distinctLabels draws n distinct unreserved labels not present in used,
// and records them there.
func distinctLabels(r *rand.Rand, n int, used map[label.Label]bool) []label.Label {
	out := make([]label.Label, 0, n)
	for len(out) < n {
		l := label.FirstUnreserved + label.Label(r.IntN(int(label.MaxLabel-label.FirstUnreserved)+1))
		if used[l] {
			continue
		}
		used[l] = true
		out = append(out, l)
	}
	return out
}

const (
	sendTTL   = 64 // TTL every generated packet leaves with
	expectTTL = sendTTL - 1

	// stampSize is the part of the payload the generator owns: due time
	// (ns since the harness epoch, 0 in the saturation phase), flow
	// index and per-flow sequence.
	stampSize = 16
)

func stamp(payload []byte, due int64, flow, flowSeq uint32) {
	binary.BigEndian.PutUint64(payload[0:], uint64(due))
	binary.BigEndian.PutUint32(payload[8:], flow)
	binary.BigEndian.PutUint32(payload[12:], flowSeq)
}

func unstamp(payload []byte) (due int64, flow, flowSeq uint32) {
	return int64(binary.BigEndian.Uint64(payload[0:])),
		binary.BigEndian.Uint32(payload[8:]),
		binary.BigEndian.Uint32(payload[12:])
}

// ---- wire workloads ----

// fecPrefix is one FEC binding: prefix, the label the LER pushes for it.
type fecPrefix struct {
	Addr  packet.Addr
	Len   int
	Label label.Label
}

func (p fecPrefix) contains(a packet.Addr) bool {
	if p.Len == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - p.Len)
	return uint32(a)&mask == uint32(p.Addr)&mask
}

// lpm is the reference longest-prefix match the sinks verify against —
// a plain scan, independent of the trie under test.
func lpm(prefixes []fecPrefix, a packet.Addr) (fecPrefix, bool) {
	best, ok := fecPrefix{Len: -1}, false
	for _, p := range prefixes {
		if p.contains(a) && p.Len > best.Len {
			best, ok = p, true
		}
	}
	return best, ok
}

// makePrefixes draws n FEC prefixes of length 16..28. Three quarters
// sit in /16s of their own (10.i.0.0); the last quarter are
// more-specifics nested inside the first ones, so longest-prefix match
// has real choices to make.
func makePrefixes(r *rand.Rand, n int, used map[label.Label]bool) []fecPrefix {
	labels := distinctLabels(r, n, used)
	out := make([]fecPrefix, 0, n)
	top := n - n/4
	for i := 0; i < top; i++ {
		plen := 16 + r.IntN(9) // 16..24
		addr := uint32(10)<<24 | uint32(i)<<16 | uint32(r.IntN(1<<16))
		addr &= ^uint32(0) << (32 - plen)
		out = append(out, fecPrefix{Addr: packet.Addr(addr), Len: plen, Label: labels[i]})
	}
	for i := top; i < n; i++ {
		parent := out[i-top]
		plen := parent.Len + 2 + r.IntN(3) // parent+2..parent+4, at most 28
		if plen > 28 {
			plen = 28
		}
		host := uint32(r.IntN(1 << (32 - parent.Len)))
		addr := (uint32(parent.Addr) | host) & (^uint32(0) << (32 - plen))
		out = append(out, fecPrefix{Addr: packet.Addr(addr), Len: plen, Label: labels[i]})
	}
	return out
}

// makeDests draws len(prefixes)*perPrefix distinct destinations, taking
// prefixes in turn (a long prefix gives at most half its addresses, the
// others make up the difference), and returns them with the label
// reference LPM says each must leave with.
func makeDests(r *rand.Rand, prefixes []fecPrefix, perPrefix int) (dst []packet.Addr, want []label.Label) {
	seen := make(map[packet.Addr]bool)
	given := make([]int, len(prefixes))
	total := len(prefixes) * perPrefix
	for i := 0; len(dst) < total; i++ {
		k := i % len(prefixes)
		p := prefixes[k]
		if given[k] >= 1<<(32-p.Len)/2 {
			continue
		}
		a := packet.Addr(uint32(p.Addr) | uint32(r.IntN(1<<(32-p.Len))))
		if seen[a] {
			continue
		}
		seen[a] = true
		given[k]++
		best, _ := lpm(prefixes, a)
		dst = append(dst, a)
		want = append(want, best.Label)
	}
	return dst, want
}

// wirePlan is what a wire workload programs into node b and expects at
// the sink c.
type wirePlan struct {
	// Labelled transit: flow f enters with In[f] and must leave with
	// Out[f].
	In, Out []label.Label
	// Unlabelled edge: flow f is destination Dst[f] and must leave
	// under label Out[f]; Prefixes are the FECs to install.
	Prefixes []fecPrefix
	Dst      []packet.Addr

	PayloadLen int
	Burst      int
}

func (p *wirePlan) flows() int { return len(p.Out) }

func transitPlan(seed int64) *wirePlan {
	r := newRand(seed, streamTables)
	used := make(map[label.Label]bool)
	const flows = 1024 // = the flow cache size: every flow stays cached
	return &wirePlan{
		In:         distinctLabels(r, flows, used),
		Out:        distinctLabels(r, flows, used),
		PayloadLen: stampSize,
		Burst:      256,
	}
}

func edgePlan(seed int64) *wirePlan {
	r := newRand(seed, streamTables)
	used := make(map[label.Label]bool)
	prefixes := makePrefixes(r, 64, used)
	dst, want := makeDests(r, prefixes, 64) // 4096 destinations
	return &wirePlan{Prefixes: prefixes, Dst: dst, Out: want, PayloadLen: 1024, Burst: 64}
}

// wireGen turns a plan into bursts. Flow f always travels on sender
// f%senders, so per-flow order survives the two connections; burst k
// goes to sender k%senders and draws only from that sender's flows.
type wireGen struct {
	plan    *wirePlan
	r       *rand.Rand
	senders int
	seq     uint64 // global packet sequence, carried as Packet.SeqNo
	flowSeq []uint32
}

func newWireGen(plan *wirePlan, seed int64, senders int) *wireGen {
	return &wireGen{
		plan: plan, r: newRand(seed, streamSchedule), senders: senders,
		flowSeq: make([]uint32, plan.flows()),
	}
}

// newBurst allocates the reusable packets of one sender's burst.
func (g *wireGen) newBurst() []*packet.Packet {
	ps := make([]*packet.Packet, g.plan.Burst)
	fill := newRand(int64(g.plan.PayloadLen), streamTables)
	for i := range ps {
		payload := make([]byte, g.plan.PayloadLen)
		for j := stampSize; j < len(payload); j++ {
			payload[j] = byte(fill.Uint32())
		}
		ps[i] = packet.New(packet.AddrFrom(192, 0, 2, 1), 0, sendTTL, payload)
	}
	return ps
}

// next fills ps with burst k, stamped with due, and returns the sender
// it belongs to. Nothing is allocated.
func (g *wireGen) next(ps []*packet.Packet, k uint64, due int64) int {
	sender := int(k % uint64(g.senders))
	per := g.plan.flows() / g.senders
	for _, p := range ps {
		f := g.r.IntN(per)*g.senders + sender
		g.flowSeq[f]++
		p.SeqNo = g.seq
		g.seq++
		p.Stack.Reset()
		p.Header.TTL = sendTTL
		if g.plan.In != nil {
			// The stack was just emptied; one push cannot overflow.
			_ = p.Stack.Push(label.Entry{Label: g.plan.In[f], TTL: sendTTL})
			p.Header.Dst = packet.AddrFrom(10, 0, 0, 9)
		} else {
			p.Header.Dst = g.plan.Dst[f]
		}
		p.Header.FlowID = uint16(f)
		stamp(p.Payload, due, uint32(f), g.flowSeq[f])
	}
	return sender
}

// ---- engine_mix ----

type mixClass uint8

const (
	mixSwap1        mixClass = iota // depth-1 swap
	mixPop2                         // depth-2 pop
	mixSwap3                        // depth-3 swap
	mixPush0                        // unlabelled push (LPM)
	mixMiss                         // discard: lookup miss
	mixTTL                          // discard: TTL expired
	mixInconsistent                 // discard: push onto a full stack
	numMixClasses
)

// mixShare is the workload's mix in percent; the three discard classes
// split the 5% evenly by drawing one of them uniformly.
var mixShare = [...]int{mixSwap1: 60, mixPop2: 15, mixSwap3: 10, mixPush0: 10}

var mixNextHops = []string{"n0", "n1", "n2", "n3"}

type mixBinding struct {
	In, Out label.Label
	NextHop string
}

// mixPlan is the engine's table content: 1024 ILM entries (the
// capacity of one information base level) and 256 FEC prefixes over
// 16384 destinations — 16 times the 1024-entry flow cache, so
// unlabelled traffic mostly misses it.
type mixPlan struct {
	Swap, Pop, Push []mixBinding
	Miss            []label.Label // never installed
	Inner           []label.Label // what sits under the top entry at depth 2/3
	Prefixes        []fecPrefix
	PrefixHop       map[label.Label]string // by pushed label
	Dst             []packet.Addr
	DstLabel        []label.Label
}

func (p *mixPlan) flows() int { return len(p.Swap) + len(p.Pop) + len(p.Push) + len(p.Dst) }

func makeMixPlan(seed int64) *mixPlan {
	r := newRand(seed, streamTables)
	used := make(map[label.Label]bool)
	bind := func(n int, withOut bool) []mixBinding {
		in := distinctLabels(r, n, used)
		out := make([]mixBinding, n)
		for i := range out {
			// Next hops go round: every egress ring then fills at the same
			// rate whatever the seed, and the fixed-rate latency (mostly
			// ring fill time) does not depend on the draw.
			out[i] = mixBinding{In: in[i], NextHop: mixNextHops[i%len(mixNextHops)]}
			if withOut {
				out[i].Out = distinctLabels(r, 1, used)[0]
			}
		}
		return out
	}
	p := &mixPlan{
		Swap:      bind(640, true),
		Pop:       bind(192, false),
		Push:      bind(192, true),
		Miss:      distinctLabels(r, 256, used),
		Inner:     distinctLabels(r, 256, used),
		PrefixHop: make(map[label.Label]string),
	}
	p.Prefixes = makePrefixes(r, 256, used)
	for i, pf := range p.Prefixes {
		p.PrefixHop[pf.Label] = mixNextHops[i%len(mixNextHops)]
	}
	p.Dst, p.DstLabel = makeDests(r, p.Prefixes, 64)
	return p
}

// install programs a forwarder with the plan.
func (p *mixPlan) install(f *swmpls.Forwarder) error {
	for _, b := range p.Swap {
		if err := f.InstallILM(b.In, swmpls.NHLFE{NextHop: b.NextHop, Op: label.OpSwap, PushLabels: []label.Label{b.Out}}); err != nil {
			return err
		}
	}
	for _, b := range p.Pop {
		if err := f.InstallILM(b.In, swmpls.NHLFE{NextHop: b.NextHop, Op: label.OpPop}); err != nil {
			return err
		}
	}
	for _, b := range p.Push {
		if err := f.InstallILM(b.In, swmpls.NHLFE{NextHop: b.NextHop, Op: label.OpPush, PushLabels: []label.Label{b.Out}}); err != nil {
			return err
		}
	}
	for _, pf := range p.Prefixes {
		n := swmpls.NHLFE{NextHop: p.PrefixHop[pf.Label], Op: label.OpPush, PushLabels: []label.Label{pf.Label}}
		if err := f.InstallFEC(pf.Addr, pf.Len, n); err != nil {
			return err
		}
	}
	return nil
}

// mixExpect is what the generator predicts for one packet; the egress
// sink verifies the engine's outcome against it.
type mixExpect struct {
	Class   mixClass
	Flow    uint32
	FlowSeq uint32
	Drop    swmpls.DropReason // DropNone for forwarded classes
	NextHop string
	Top     label.Label
	Depth   uint8
	Due     int64
}

type mixGen struct {
	plan    *mixPlan
	r       *rand.Rand
	seq     uint64
	flowSeq []uint32
	// Count is how many packets of each class were generated so far —
	// the expected side of the discard-count gate.
	Count [numMixClasses]int64
}

func newMixGen(plan *mixPlan, seed int64) *mixGen {
	return &mixGen{plan: plan, r: newRand(seed, streamMix), flowSeq: make([]uint32, plan.flows())}
}

func (g *mixGen) class() mixClass {
	x := g.r.IntN(100)
	for c, share := range mixShare {
		if x < share {
			return mixClass(c)
		}
		x -= share
	}
	return mixMiss + mixClass(g.r.IntN(3))
}

// fill rewrites p as the next packet of the mix and returns what must
// happen to it. p's stack and payload storage are reused.
func (g *mixGen) fill(p *packet.Packet, due int64) mixExpect {
	pl := g.plan
	c := g.class()
	g.Count[c]++
	e := mixExpect{Class: c, Due: due}
	p.SeqNo = g.seq
	g.seq++
	p.Stack.Reset()
	p.Header = packet.Header{Src: packet.AddrFrom(192, 0, 2, 1), Dst: packet.AddrFrom(10, 255, 0, 9), TTL: sendTTL}
	push := func(l label.Label, ttl uint8) { _ = p.Stack.Push(label.Entry{Label: l, TTL: ttl}) }
	inner := func() label.Label { return pl.Inner[g.r.IntN(len(pl.Inner))] }
	switch c {
	case mixSwap1, mixSwap3, mixTTL:
		i := g.r.IntN(len(pl.Swap))
		b := pl.Swap[i]
		if c == mixSwap3 {
			push(inner(), sendTTL)
			push(inner(), sendTTL)
		}
		e.Flow, e.NextHop, e.Top, e.Depth = uint32(i), b.NextHop, b.Out, uint8(p.Stack.Depth()+1)
		if c == mixTTL {
			push(b.In, 1) // decrements to zero at this hop
			e.Drop = swmpls.DropTTLExpired
		} else {
			push(b.In, sendTTL)
		}
	case mixPop2:
		i := g.r.IntN(len(pl.Pop))
		b := pl.Pop[i]
		in := inner()
		push(in, sendTTL)
		push(b.In, sendTTL)
		e.Flow, e.NextHop, e.Top, e.Depth = uint32(len(pl.Swap)+i), b.NextHop, in, 1
	case mixInconsistent:
		i := g.r.IntN(len(pl.Push))
		push(inner(), sendTTL)
		push(inner(), sendTTL)
		push(pl.Push[i].In, sendTTL) // depth 3: the stored push cannot fit
		e.Flow, e.Drop = uint32(len(pl.Swap)+len(pl.Pop)+i), swmpls.DropStackOverflow
	case mixMiss:
		push(pl.Miss[g.r.IntN(len(pl.Miss))], sendTTL)
		e.Drop = swmpls.DropNoLabel
	case mixPush0:
		i := g.r.IntN(len(pl.Dst))
		p.Header.Dst = pl.Dst[i]
		e.Flow, e.Top, e.Depth = uint32(len(pl.Swap)+len(pl.Pop)+len(pl.Push)+i), pl.DstLabel[i], 1
		e.NextHop = pl.PrefixHop[pl.DstLabel[i]]
	}
	if e.Drop == swmpls.DropNone {
		g.flowSeq[e.Flow]++
		e.FlowSeq = g.flowSeq[e.Flow]
	}
	return e
}

// ---- lsm_rtl ----

type lsmKind uint8

const (
	lsmSwap lsmKind = iota // depth 1, level-2 search, swap
	lsmPop                 // depth 2, level-3 search, pop
	lsmPush                // unlabelled, level-1 search by packet id, push
	lsmMiss                // depth 1, unknown label: full level scan
)

// lsmPlan fills every information base level to the paper's 1024
// entries. ILM holds the label bindings in write order (the device
// writes each to levels 2 and 3), FEC the level-1 bindings.
type lsmPlan struct {
	ILM   []infobase.Pair
	FEC   []infobase.Pair
	Swaps []int // indices into ILM whose Op is swap
	Pops  []int
	Miss  []label.Label
	Inner []label.Label
}

func makeLSMPlan(seed int64) *lsmPlan {
	r := newRand(seed, streamTables)
	used := make(map[label.Label]bool)
	n := infobase.EntriesPerLevel
	p := &lsmPlan{Miss: distinctLabels(r, 64, used), Inner: distinctLabels(r, 64, used)}
	in := distinctLabels(r, n, used)
	for i := 0; i < n; i++ {
		pair := infobase.Pair{Index: infobase.Key(in[i]), Op: label.OpSwap}
		// 15 pops per 70 swaps, spread over every search position.
		if r.IntN(85) < 15 {
			pair.Op = label.OpPop
			p.Pops = append(p.Pops, i)
		} else {
			pair.NewLabel = distinctLabels(r, 1, used)[0]
			p.Swaps = append(p.Swaps, i)
		}
		p.ILM = append(p.ILM, pair)
	}
	ids := make(map[uint32]bool)
	for len(p.FEC) < n {
		id := uint32(10)<<24 | uint32(r.IntN(1<<24))
		if ids[id] {
			continue
		}
		ids[id] = true
		p.FEC = append(p.FEC, infobase.Pair{Index: infobase.Key(id), NewLabel: distinctLabels(r, 1, used)[0], Op: label.OpPush})
	}
	return p
}

// lsmPacket is one generated packet of the stream.
type lsmPacket struct {
	Kind     lsmKind
	Stack    []label.Entry // bottom first
	PacketID uint32
}

type lsmGen struct {
	plan *lsmPlan
	r    *rand.Rand
}

func newLSMGen(plan *lsmPlan, seed int64) *lsmGen {
	return &lsmGen{plan: plan, r: newRand(seed, streamLSM)}
}

// next draws the stream's mix: 70% swap at a uniform search position,
// 15% pop, 10% level-1 push, 5% miss.
func (g *lsmGen) next() lsmPacket {
	pl := g.plan
	x := g.r.IntN(100)
	switch {
	case x < 70:
		pair := pl.ILM[pl.Swaps[g.r.IntN(len(pl.Swaps))]]
		return lsmPacket{Kind: lsmSwap, Stack: []label.Entry{{Label: label.Label(pair.Index), TTL: sendTTL}}}
	case x < 85:
		pair := pl.ILM[pl.Pops[g.r.IntN(len(pl.Pops))]]
		return lsmPacket{Kind: lsmPop, Stack: []label.Entry{
			{Label: pl.Inner[g.r.IntN(len(pl.Inner))], TTL: sendTTL},
			{Label: label.Label(pair.Index), TTL: sendTTL},
		}}
	case x < 95:
		return lsmPacket{Kind: lsmPush, PacketID: uint32(pl.FEC[g.r.IntN(len(pl.FEC))].Index)}
	default:
		return lsmPacket{Kind: lsmMiss, Stack: []label.Entry{{Label: pl.Miss[g.r.IntN(len(pl.Miss))], TTL: sendTTL}}}
	}
}

// ---- control_ring ----

// ringPlan is the control-plane workload's input: a ring whose link
// delays are the nominal 0.5 ms with a few percent of seeded jitter
// (so simulated latencies are a property of the seed, exact per seed,
// yet not one constant for every seed), which link fails, and the LSPs.
type ringPlan struct {
	Nodes    int
	PerNode  int
	Delay    []float64 // link i joins node i and node i+1
	FailLink int
}

func makeRingPlan(seed int64) *ringPlan {
	r := newRand(seed, streamRing)
	p := &ringPlan{Nodes: 32, PerNode: 8}
	for i := 0; i < p.Nodes; i++ {
		p.Delay = append(p.Delay, 0.0005*(0.95+0.10*r.Float64()))
	}
	p.FailLink = r.IntN(p.Nodes)
	return p
}

func ringNode(i int) string { return fmt.Sprintf("r%02d", i) }

// lspID names LSP k of ingress i; its FEC is 10.i.k.1/32.
func lspID(i, k int) string { return fmt.Sprintf("lsp-%02d-%d", i, k) }
