package label

import "testing"

// FuzzDecodeWire checks the stack decoder on arbitrary bytes: no panics,
// a failed decode leaves the stack empty, and anything that decodes
// re-encodes through AppendWire to exactly the bytes it consumed.
func FuzzDecodeWire(f *testing.F) {
	s, _ := NewStack(Entry{Label: 100, TTL: 64}, Entry{Label: 200, TTL: 64})
	buf, _ := s.AppendWire(nil)
	f.Add(buf)
	f.Add([]byte{0, 0, 1, 0})
	mid, bot := Entry{Label: 300, CoS: 5, TTL: 9}, Entry{Label: 400, TTL: 9, Bottom: true}
	f.Add(wireOf(mid, mid, bot))      // three deep: the deepest legal stack
	f.Add(wireOf(mid, mid, mid, bot)) // four deep with S: ErrStackFull
	f.Add(wireOf(mid, mid, mid, mid)) // four deep without S: max depth
	f.Fuzz(func(t *testing.T, data []byte) {
		var st Stack
		n, err := st.DecodeWireInto(data)
		if err != nil {
			if st != (Stack{}) {
				t.Fatalf("failed decode left %v", st)
			}
			return
		}
		if !st.Consistent() {
			t.Fatal("decoded stack violates the S-bit invariant")
		}
		out, err := st.AppendWire(nil)
		if err != nil {
			t.Fatalf("decoded stack does not encode: %v", err)
		}
		if string(out) != string(data[:n]) {
			t.Fatalf("re-encoded %x, consumed %x", out, data[:n])
		}
	})
}
