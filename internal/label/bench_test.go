package label

import "testing"

func BenchmarkEntryPack(b *testing.B) {
	e := Entry{Label: 504, CoS: 3, Bottom: true, TTL: 63}
	for i := 0; i < b.N; i++ {
		if _, err := e.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntryUnpack(b *testing.B) {
	w := Entry{Label: 504, CoS: 3, Bottom: true, TTL: 63}.MustPack()
	for i := 0; i < b.N; i++ {
		_ = Unpack(w)
	}
}

func BenchmarkStackPushPop(b *testing.B) {
	s := &Stack{}
	e := Entry{Label: 100, TTL: 64}
	for i := 0; i < b.N; i++ {
		if err := s.Push(e); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Pop(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStackWireRoundTrip(b *testing.B) {
	s, err := NewStack(
		Entry{Label: 100, TTL: 64},
		Entry{Label: 200, TTL: 64},
		Entry{Label: 300, TTL: 64},
	)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 12)
	var got Stack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, err = s.AppendWire(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := got.DecodeWireInto(buf); err != nil {
			b.Fatal(err)
		}
	}
}
