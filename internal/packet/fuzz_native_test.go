package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"embeddedmpls/internal/label"
)

// FuzzUnmarshal is a native fuzz target (seeds run under plain go test;
// explore further with `go test -fuzz=FuzzUnmarshal ./internal/packet`).
func FuzzUnmarshal(f *testing.F) {
	p := New(AddrFrom(10, 0, 0, 1), AddrFrom(10, 0, 0, 2), 64, []byte("seed"))
	buf, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{0x88, 0x00, 0x01, 0x21, 0x3f})
	f.Add([]byte{0x45})
	// Label stacks at and past the register file's depth: three deep,
	// four deep with an S bit (ErrStackFull), four deep without one.
	for _, c := range []struct {
		depth int
		sBit  bool
	}{{3, true}, {4, true}, {4, false}} {
		buf := []byte{magicMPLS}
		for i := 0; i < c.depth; i++ {
			e := label.Entry{Label: label.Label(100 + i), TTL: 9, Bottom: c.sBit && i == c.depth-1}
			buf = binary.BigEndian.AppendUint32(buf, e.MustPack())
		}
		f.Add(append(buf, make([]byte, headerSize)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Whatever parses must re-encode and re-parse to the same packet.
		out, err := q.Marshal()
		if err != nil {
			t.Fatalf("parsed packet does not marshal: %v", err)
		}
		r, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded packet does not parse: %v", err)
		}
		if r.Header != q.Header || !bytes.Equal(r.Payload, q.Payload) || !r.Stack.Equal(q.Stack) {
			t.Fatal("marshal/unmarshal not idempotent")
		}
	})
}
