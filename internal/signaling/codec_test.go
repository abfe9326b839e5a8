package signaling

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/transport"
)

func sampleMessage() Message {
	m := Message{
		Type:      MsgLabelRequest,
		Src:       0x0102,
		PHP:       true,
		Code:      0,
		FEC:       ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, 9), PrefixLen: 32},
		CoS:       5,
		Label:     77,
		Bandwidth: 1e6,
		Hold:      0.12,
		Avoid:     [2]transport.NodeID{3, 4},
		Route:     []transport.NodeID{0, 1, 2},
	}
	m.SetID("lsp-a#1")
	return m
}

// TestCodecGoldenBytes pins the wire format byte for byte: any layout
// change must be deliberate and break here first.
func TestCodecGoldenBytes(t *testing.T) {
	m := sampleMessage()
	got, err := AppendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x4C, 0x44, // magic "LD"
		1,                     // version
		byte(MsgLabelRequest), // type
		0x01, 0x02,            // src
		0x01,        // flags: PHP
		0x00,        // code
		10, 0, 0, 9, // fec dst
		32,          // prefix len
		5,           // cos
		0, 0, 0, 77, // label
		0x41, 0x2E, 0x84, 0x80, 0, 0, 0, 0, // bandwidth 1e6
		0x3F, 0xBE, 0xB8, 0x51, 0xEB, 0x85, 0x1E, 0xB8, // hold 0.12
		0, 3, // avoid[0]
		0, 4, // avoid[1]
		7, // id len
		3, // route len
		'l', 's', 'p', '-', 'a', '#', '1',
		0, 0, 0, 1, 0, 2,
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding differs:\n got %#v\nwant %#v", got, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range []Message{
		sampleMessage(),
		{Type: MsgHello, Src: 9, Hold: 0.06},
		{Type: MsgKeepalive},
		{Type: MsgError, Code: ErrCodeNoBandwidth},
		{Type: MsgLabelRequest, tunnel: true, Route: []transport.NodeID{4, 5, 6}},
	} {
		buf, err := AppendMessage(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		var out Message
		if err := DecodeMessage(&out, buf); err != nil {
			t.Fatalf("decode %v: %v", m.Type, err)
		}
		if out.Type != m.Type || out.Src != m.Src || out.PHP != m.PHP || out.tunnel != m.tunnel ||
			out.Code != m.Code || out.FEC != m.FEC || out.CoS != m.CoS ||
			out.Label != m.Label || out.Avoid != m.Avoid ||
			out.IDString() != m.IDString() ||
			math.Float64bits(out.Bandwidth) != math.Float64bits(m.Bandwidth) ||
			math.Float64bits(out.Hold) != math.Float64bits(m.Hold) {
			t.Errorf("round trip mutated message:\n got %+v\nwant %+v", out, m)
		}
		if len(out.Route) != len(m.Route) {
			t.Fatalf("route length %d, want %d", len(out.Route), len(m.Route))
		}
		for i := range m.Route {
			if out.Route[i] != m.Route[i] {
				t.Errorf("route[%d] = %d, want %d", i, out.Route[i], m.Route[i])
			}
		}
	}
}

func TestCodecRejects(t *testing.T) {
	good := sampleMessage()
	buf, err := AppendMessage(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:headerSize-1] }},
		{"bad magic", func(b []byte) []byte { b[0] = 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }},
		{"bad type", func(b []byte) []byte { b[3] = 0; return b }},
		{"truncated id", func(b []byte) []byte { return b[:headerSize+2] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }},
		{"id len overflow", func(b []byte) []byte { b[38] = MaxIDLen + 1; return b }},
		{"unknown flag", func(b []byte) []byte { b[6] |= 4; return b }},
	}
	for _, c := range cases {
		cp := append([]byte(nil), buf...)
		if err := DecodeMessage(&m, c.mut(cp)); err == nil {
			t.Errorf("%s: decode accepted", c.name)
		}
	}

	// Encode-side validation.
	bad := good
	bad.Route = make([]transport.NodeID, MaxRouteLen+1)
	if _, err := AppendMessage(nil, &bad); err == nil {
		t.Error("oversized route accepted")
	}
	bad = good
	bad.FEC.PrefixLen = 33
	if _, err := AppendMessage(nil, &bad); err == nil {
		t.Error("bad prefix length accepted")
	}
	bad = good
	bad.Type = msgTypeEnd
	if _, err := AppendMessage(nil, &bad); err == nil {
		t.Error("bad type accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgLabelMapping.String() != "label-mapping" || MsgHello.String() != "hello" {
		t.Errorf("type names wrong: %v %v", MsgLabelMapping, MsgHello)
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Errorf("out-of-range String() = %q", MsgType(99).String())
	}
	if MsgType(0).Valid() || msgTypeEnd.Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestMessageID(t *testing.T) {
	var m Message
	m.SetID("short")
	if m.IDString() != "short" || m.IDLen != 5 {
		t.Errorf("SetID short: %q len %d", m.IDString(), m.IDLen)
	}
	long := strings.Repeat("x", MaxIDLen+10)
	m.SetID(long)
	if m.IDLen != MaxIDLen || m.IDString() != long[:MaxIDLen] {
		t.Errorf("SetID long: %q len %d", m.IDString(), m.IDLen)
	}
}

// TestCodecZeroAlloc pins the zero-allocation discipline: encoding into
// a reused buffer and decoding into a reused message must not allocate.
func TestCodecZeroAlloc(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, 0, 128)
	encoded, err := AppendMessage(buf, &m)
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	out.Route = make([]transport.NodeID, 0, MaxRouteLen)

	if n := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		buf, _ = AppendMessage(buf, &m)
	}); n != 0 {
		t.Errorf("encode allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeMessage(&out, encoded); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode allocates %.1f/op, want 0", n)
	}
}

// FuzzSignalingDecode throws arbitrary bytes at the decoder and
// round-trips everything it accepts.
func FuzzSignalingDecode(f *testing.F) {
	seed := sampleMessage()
	buf, err := AppendMessage(nil, &seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add([]byte{0x4C, 0x44, 1, 1})
	hello, _ := AppendMessage(nil, &Message{Type: MsgHello, Src: 1, Hold: 0.06})
	f.Add(hello)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := DecodeMessage(&m, data); err != nil {
			return
		}
		re, err := AppendMessage(nil, &m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		var m2 Message
		if err := DecodeMessage(&m2, re); err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes:\n in  %x\n out %x", data, re)
		}
	})
}
