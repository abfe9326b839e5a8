package main

import (
	"runtime"
	"time"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/transport"
)

// Replay metrics call one layer's public function alone on a sample of
// the workload's own packets: replayOps operations per repetition,
// median of replayReps repetitions. They run only in the traced run,
// after the measured phases, so they never share the processor with an
// end-to-end figure.
const (
	replayOps    = 100_000
	replayReps   = 5
	replaySample = 4096 // distinct packets cycled to reach replayOps
)

// replay times op over the sample, calling prep (untimed) before each
// pass so operations that consume their input always see fresh packets.
// It returns nanoseconds and heap allocations per operation.
func replay(sample int, prep func(), op func(i int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for rep := 0; rep < replayReps; rep++ {
		var spent time.Duration
		var mallocs uint64
		done := 0
		for done < replayOps {
			if prep != nil {
				prep()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < sample; i++ {
				op(i)
			}
			spent += time.Since(t0)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			done += sample
		}
		ns = append(ns, float64(spent.Nanoseconds())/float64(done))
		allocs = append(allocs, float64(mallocs)/float64(done))
	}
	return median(ns), median(allocs)
}

// replayCodec measures the wire codec the way the batched link uses it:
// packets appended into 32-packet coalesced frames, frames walked and
// decoded segment by segment into a reused packet.
func replayCodec(sample []*packet.Packet, layer map[string]float64) {
	const perFrame = 32
	buf := make([]byte, 0, 64<<10)
	frames := make([][]byte, 0, len(sample)/perFrame)
	var encAllocs float64
	layer["transport.encode_ns_per_pkt"], encAllocs = replay(len(sample)/perFrame, nil, func(i int) {
		fe := transport.BeginFrame(buf[:0])
		for _, p := range sample[i*perFrame : (i+1)*perFrame] {
			_ = fe.Append(p, 1) // sample packets always encode
		}
		_, _ = fe.Finish()
	})
	// replay reports per call; a call here is one frame.
	layer["transport.encode_ns_per_pkt"] /= perFrame
	for i := 0; i+perFrame <= len(sample); i += perFrame {
		fe := transport.BeginFrame(nil)
		for _, p := range sample[i : i+perFrame] {
			_ = fe.Append(p, 1)
		}
		f, _ := fe.Finish()
		frames = append(frames, f)
	}
	var into packet.Packet
	decNs, decAllocs := replay(len(frames), nil, func(i int) {
		_ = transport.ForEachFrameSegment(frames[i], func(seg []byte) error {
			_, err := transport.DecodePacket(&into, seg)
			return err
		})
	})
	layer["transport.decode_ns_per_pkt"] = decNs / perFrame
	layer["transport.codec_allocs_per_pkt"] = (encAllocs + decAllocs) / perFrame
}

func replayClone(sample []*packet.Packet, layer map[string]float64) {
	var sink *packet.Packet
	layer["packet.clone_ns_per_pkt"], layer["packet.clone_allocs_per_pkt"] = replay(len(sample), nil, func(i int) {
		sink = sample[i].Clone()
	})
	_ = sink
}

// replayForwarder measures the software forwarder on tbl: the full
// Forward, and its two halves. refill must restore every sample packet
// to its pre-forwarding state.
func replayForwarder(tbl *swmpls.Forwarder, sample []*packet.Packet, refill func(), layer map[string]float64) {
	layer["swmpls.forward_ns_per_pkt"], _ = replay(len(sample), refill, func(i int) {
		tbl.Forward(sample[i])
	})
	resolved := make([]swmpls.NHLFE, len(sample))
	found := make([]bool, len(sample))
	refill()
	layer["swmpls.resolve_ns_per_pkt"], _ = replay(len(sample), nil, func(i int) {
		resolved[i], found[i] = tbl.Resolve(sample[i])
	})
	layer["swmpls.apply_ns_per_pkt"], _ = replay(len(sample), refill, func(i int) {
		if found[i] {
			tbl.ApplyResolved(sample[i], resolved[i])
		}
	})
	var clone *swmpls.Forwarder
	var ns []float64
	for rep := 0; rep < 4*replayReps; rep++ {
		t0 := time.Now()
		clone = tbl.Clone()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	_ = clone
	layer["swmpls.clone_ns_per_table"] = median(ns)
}

// replayInfobase measures lookup and write on a store of the given
// kind holding keys (one level's worth) — indexed for the data-plane
// workloads, the paper's linear scan for lsm_rtl.
func replayInfobase(indexed bool, keys []label.Label, layer map[string]float64) {
	pairs := make([]infobase.Pair, len(keys))
	for i, k := range keys {
		pairs[i] = infobase.Pair{Index: infobase.Key(k), NewLabel: 100, Op: label.OpSwap}
	}
	store := infobase.New(infobase.WithIndex(indexed))
	fill := func() {
		store.Clear()
		for _, p := range pairs {
			_ = store.Write(infobase.Level2, p) // len(keys) <= capacity
		}
	}
	fill()
	var hit bool
	layer["infobase.lookup_ns_per_op"], _ = replay(len(keys), nil, func(i int) {
		_, _, hit = store.Lookup(infobase.Level2, pairs[i].Index)
	})
	_ = hit
	layer["infobase.write_ns_per_op"], _ = replay(len(keys), store.Clear, func(i int) {
		_ = store.Write(infobase.Level2, pairs[i])
	})
}
