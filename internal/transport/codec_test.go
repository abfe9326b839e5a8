package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
)

// samplePacket is the reference packet for the golden and round-trip
// tests: a two-deep label stack, measurement bookkeeping, and a payload.
func samplePacket(t testing.TB) *packet.Packet {
	t.Helper()
	p := packet.New(packet.AddrFrom(10, 0, 0, 1), packet.AddrFrom(10, 0, 0, 9), 64, []byte("hi"))
	p.Header.Proto = 7
	p.Header.FlowID = 0x0102
	p.SeqNo = 0x0102030405060708
	p.SentAt = 1.5
	if err := p.Stack.Push(label.Entry{Label: 100, CoS: 5, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if err := p.Stack.Push(label.Entry{Label: 17, CoS: 2, TTL: 63}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenBytes pins the wire format byte for byte. If this test
// breaks, the format changed: bump Version, don't regenerate the gold.
func TestGoldenBytes(t *testing.T) {
	const gold = "e54d0101" + // magic, version 1, flags: labelled
		"0003" + // source node 3
		"0200" + // CoS of top entry, reserved
		"0102030405060708" + // packet id (SeqNo)
		"3ff8000000000000" + // trace context (SentAt 1.5)
		"0001143f" + // top label entry: lbl=17 cos=2 S=0 ttl=63
		"00064b40" + // bottom label entry: lbl=100 cos=5 S=1 ttl=64
		"0a000001" + "0a000009" + // src, dst address
		"40" + "07" + "0102" + // TTL, proto, flow id
		"0002" + "6869" // payload length, "hi"

	p := samplePacket(t)
	enc, err := AppendPacket(nil, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != gold {
		t.Errorf("wire bytes drifted:\n got  %s\n want %s", got, gold)
	}
	if len(enc) != EncodedSize(p) {
		t.Errorf("EncodedSize = %d, encoded %d bytes", EncodedSize(p), len(enc))
	}
}

func TestRoundTrip(t *testing.T) {
	p := samplePacket(t)
	enc, err := AppendPacket(nil, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Packet
	src, err := DecodePacket(&got, enc)
	if err != nil {
		t.Fatal(err)
	}
	if src != 42 {
		t.Errorf("src node = %d, want 42", src)
	}
	checkEqual(t, p, &got)
}

func TestRoundTripUnlabelled(t *testing.T) {
	p := packet.New(1, 2, 8, []byte{0xde, 0xad})
	enc, err := AppendPacket(nil, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Packet
	if _, err := DecodePacket(&got, enc); err != nil {
		t.Fatal(err)
	}
	checkEqual(t, p, &got)

	// Trailing bytes beyond the declared payload length are layer-2
	// padding, not part of the packet.
	padded := append(append([]byte(nil), enc...), 0, 0, 0, 0)
	if _, err := DecodePacket(&got, padded); err != nil {
		t.Fatalf("padded datagram: %v", err)
	}
	checkEqual(t, p, &got)
}

func checkEqual(t *testing.T, want, got *packet.Packet) {
	t.Helper()
	if got.Header != want.Header {
		t.Errorf("header = %+v, want %+v", got.Header, want.Header)
	}
	if !got.Stack.Equal(want.Stack) {
		t.Errorf("stack = %v, want %v", got.Stack, want.Stack)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("payload = %x, want %x", got.Payload, want.Payload)
	}
	if got.SeqNo != want.SeqNo || got.SentAt != want.SentAt {
		t.Errorf("bookkeeping = (%d, %v), want (%d, %v)",
			got.SeqNo, got.SentAt, want.SeqNo, want.SentAt)
	}
}

func TestDecodeErrors(t *testing.T) {
	p := samplePacket(t)
	enc, err := AppendPacket(nil, p, 1)
	if err != nil {
		t.Fatal(err)
	}

	var got packet.Packet
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", enc[:headerSize-1], ErrTruncated},
		{"bad magic", append([]byte{0, 0}, enc[2:]...), ErrMagic},
		{"bad version", mutate(enc, 2, 0x7f), ErrVersion},
		{"stack cut mid-entry", enc[:headerSize+2], label.ErrNoBottom},
		{"missing ip header", enc[:headerSize+2*label.EntrySize+3], ErrTruncated},
		{"payload length beyond buffer", enc[:len(enc)-1], ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := DecodePacket(&got, tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func mutate(buf []byte, i int, b byte) []byte {
	out := append([]byte(nil), buf...)
	out[i] = b
	return out
}

func TestOversizedPayloadRejected(t *testing.T) {
	p := packet.New(1, 2, 8, make([]byte, 0x10000))
	if _, err := AppendPacket(nil, p, 0); err == nil {
		t.Fatal("expected error for payload exceeding the length field")
	}
}

// TestCodecAllocs pins the steady-state promise: with capacity in the
// destination buffer and a reused target packet, neither direction
// allocates.
func TestCodecAllocs(t *testing.T) {
	p := samplePacket(t)
	buf := make([]byte, 0, MaxDatagram)
	enc, err := AppendPacket(buf, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Packet
	if _, err := DecodePacket(&got, enc); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendPacket(buf[:0], p, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encode allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodePacket(&got, enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode allocates %v per op, want 0", n)
	}

	// A reused packet takes a full three-deep stack and an unlabelled
	// datagram in turn without allocating: the labels decode into the
	// stack embedded in the packet.
	deep, plain := samplePacket(t), samplePacket(t)
	_ = deep.Stack.Push(label.Entry{Label: 18, TTL: 62})
	plain.Stack.Reset()
	encDeep, _ := AppendPacket(nil, deep, 1)
	encPlain, _ := AppendPacket(nil, plain, 1)
	if n := testing.AllocsPerRun(100, func() {
		_, err1 := DecodePacket(&got, encDeep)
		depth := got.Stack.Depth()
		_, err2 := DecodePacket(&got, encPlain)
		if err1 != nil || err2 != nil || depth != 3 || got.Labelled() {
			t.Fatalf("decoded depth %d then %v: %v, %v", depth, got.Stack, err1, err2)
		}
	}); n != 0 {
		t.Errorf("decode into a reused packet allocates %v per pair, want 0", n)
	}
}

// FuzzWireDecode feeds arbitrary bytes to the decoder: it must reject
// or accept, never panic, and anything it accepts must re-encode.
func FuzzWireDecode(f *testing.F) {
	p := samplePacket(f)
	enc, err := AppendPacket(nil, p, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:headerSize])
	f.Add([]byte{magic0, magic1, Version, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got packet.Packet
		src, err := DecodePacket(&got, data)
		if err != nil {
			return
		}
		if _, err := AppendPacket(nil, &got, src); err != nil {
			t.Fatalf("accepted datagram failed to re-encode: %v", err)
		}
	})
}

// FuzzWireRoundTrip drives the encoder with arbitrary packet fields and
// checks decode(encode(p)) == p.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a000009), uint8(64), uint8(7),
		uint16(1), uint64(9), 1.5, []byte("hi"), uint32(100<<12|5<<9|64), true)
	f.Fuzz(func(t *testing.T, src, dst uint32, ttl, proto uint8, flow uint16,
		seq uint64, sentAt float64, payload []byte, entryBits uint32, labelled bool) {
		if len(payload) > 0xffff {
			payload = payload[:0xffff]
		}
		p := packet.New(packet.Addr(src), packet.Addr(dst), ttl, payload)
		p.Header.Proto = proto
		p.Header.FlowID = flow
		p.SeqNo = seq
		p.SentAt = sentAt
		if labelled {
			e := label.Unpack(entryBits)
			if err := p.Stack.Push(e); err != nil {
				return // entry not encodable (reserved/invalid): nothing to test
			}
		}
		enc, err := AppendPacket(nil, p, 7)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got packet.Packet
		srcID, err := DecodePacket(&got, enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if srcID != 7 {
			t.Errorf("src = %d, want 7", srcID)
		}
		if got.Header != p.Header || !got.Stack.Equal(p.Stack) ||
			!bytes.Equal(got.Payload, p.Payload) || got.SeqNo != p.SeqNo {
			t.Errorf("round trip mismatch: got %+v, want %+v", got, *p)
		}
		// NaN trace contexts may not compare equal; compare the bits.
		if math.Float64bits(got.SentAt) != math.Float64bits(p.SentAt) {
			t.Errorf("SentAt bits = %x, want %x",
				math.Float64bits(got.SentAt), math.Float64bits(p.SentAt))
		}
	})
}
