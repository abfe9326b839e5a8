package guard

import (
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/transport"
)

// FuzzGuardAdmit drives hostile datagrams through the same pipeline the
// receiver uses — pre-admit peek, wire decode, full admission — against
// a guard with every check enabled. Whatever the bytes, the guard must
// neither panic nor let a packet through that violates an enabled
// invariant, and every call must account as exactly one admit or one
// drop — and the mutex implementation kept as the reference must agree
// with every verdict.
func FuzzGuardAdmit(f *testing.F) {
	// Seeds mirror the transport fuzz corpus: a well-formed labelled
	// packet, a well-formed unlabelled packet, truncations and bit
	// damage thereof, plus raw garbage.
	lp := packet.New(packet.AddrFrom(10, 0, 0, 1), packet.AddrFrom(10, 0, 0, 2), 64, []byte("payload"))
	lp.Stack.Push(label.Entry{Label: 100, CoS: 5, Bottom: true, TTL: 64})
	wire, err := transport.AppendPacket(nil, lp, 3)
	if err != nil {
		f.Fatal(err)
	}
	up := packet.New(packet.AddrFrom(10, 0, 0, 1), packet.AddrFrom(10, 0, 0, 2), 8, nil)
	up.Header.FlowID = ctrlFlow
	uwire, err := transport.AppendPacket(nil, up, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(uwire)
	f.Add(wire[:len(wire)-3])
	f.Add(uwire[:4])
	damaged := append([]byte(nil), wire...)
	damaged[7] ^= 0xff
	f.Add(damaged)
	f.Add([]byte{})
	f.Add([]byte{0xe5, 0x4d, 1, 0x01, 0, 3})
	f.Add([]byte("not a packet at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The lock-free guard and the mutex reference see the same
		// datagrams; pr.verdict fails on the first verdict, drop counter
		// or breaker event they disagree on.
		pr := newPair(WithDefaultPolicy(Policy{
			SpoofFilter:         true,
			MinTTL:              2,
			RatePPS:             1e6,
			Burst:               1 << 16,
			QuarantineThreshold: 4,
		}))
		const peer = "peer"
		pr.do(t, "Advertise", func(a admitter) { a.Advertise(peer, 100) })
		g := pr.got

		for i := 0; i < 6; i++ { // later passes exercise the tripped breaker and its expiry
			if i == 5 {
				pr.clk.advance(10)
			}
			before := g.Drops().Total()
			labelledClaim := len(data) >= 4 && data[0] == 0xe5 && data[1] == 0x4d && data[3]&0x01 != 0
			if !pr.verdict(t, "PreAdmit", func(a admitter) bool { return a.PreAdmit(peer, labelledClaim) }) {
				if g.Drops().Total() != before+1 {
					t.Fatal("pre-admit rejection not accounted")
				}
				continue
			}
			var p packet.Packet
			if _, err := transport.DecodePacket(&p, data); err != nil {
				pr.do(t, "Malformed", func(a admitter) { a.Malformed(peer) })
				continue
			}
			admitted := pr.verdict(t, "Admit", func(a admitter) bool { return a.Admit(&p, peer) })
			after := g.Drops().Total()
			if admitted && after != before {
				t.Fatalf("admitted packet charged %d drops", after-before)
			}
			if !admitted && after != before+1 {
				t.Fatalf("rejected packet accounted %d drops, want 1", after-before)
			}
			if admitted && p.Labelled() {
				top, _ := p.Stack.Top()
				if !g.Advertised(peer, top.Label) {
					t.Fatalf("spoofed label %v admitted", top.Label)
				}
				if top.TTL < 2 {
					t.Fatalf("labelled packet with TTL %d admitted below minimum", top.TTL)
				}
			}
			if admitted && !p.Labelled() {
				if p.Header.FlowID != ctrlFlow && p.Header.TTL < 2 {
					t.Fatalf("unlabelled packet with TTL %d admitted below minimum", p.Header.TTL)
				}
			}
		}
	})
}
