package swmpls

import (
	"fmt"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
)

// BenchmarkILMSwap is the X8 occupancy sweep: a worst-case-hit swap
// (the last-installed label, which the linear scan reaches only after
// walking the whole table) per ILM backend and table size. The linear
// and indexed backends hold one paper-sized level, so they stop at 1024.
func BenchmarkILMSwap(b *testing.B) {
	for _, kind := range []ILMKind{ILMMap, ILMLinear, ILMIndexed} {
		sizes := []int{16, 64, 256, 1024}
		if kind == ILMMap {
			sizes = append(sizes, 65536)
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				f := New(WithILM(kind))
				for i := 0; i < n; i++ {
					if err := f.MapLabel(label.Label(16+i), NHLFE{NextHop: "x", Op: label.OpSwap, PushLabels: []label.Label{label.Label(100 + i)}}); err != nil {
						b.Fatal(err)
					}
				}
				p := packet.New(1, 2, 64, nil)
				target := label.Label(16 + n - 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Stack.Reset()
					_ = p.Stack.Push(label.Entry{Label: target, TTL: 64})
					if res := f.Forward(p); res.Action != Forward {
						b.Fatal("swap failed")
					}
				}
			})
		}
	}
}

func BenchmarkFTNLongestPrefixMatch(b *testing.B) {
	for _, n := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := New()
			for i := 0; i < n; i++ {
				dst := packet.Addr(uint32(i) << 8)
				if err := f.MapFEC(dst, 24, NHLFE{NextHop: "x", Op: label.OpPush, PushLabels: []label.Label{16}}); err != nil {
					b.Fatal(err)
				}
			}
			p := packet.New(1, packet.Addr(uint32(n-1)<<8|7), 64, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Stack.Reset()
				p.Header.TTL = 64
				if res := f.Forward(p); res.Action != Forward {
					b.Fatal("lpm failed")
				}
			}
		})
	}
}
