// Package repro_test is the benchmark harness that regenerates every
// quantitative result of the paper's evaluation section (Table 6,
// Figures 14-16, the 6167-cycle worst case) plus the extension
// experiments X1-X4 of DESIGN.md. Each benchmark reports the relevant
// figure of merit as a custom metric (cycles/op at the 50 MHz device
// clock, latency, etc.) alongside the usual ns/op of the host running
// the simulation.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/trafficgen"
)

// --- Table 6 ------------------------------------------------------------

// BenchmarkTable6Reset measures the architecture reset (paper: 3 cycles).
func BenchmarkTable6Reset(b *testing.B) {
	bench := lsm.NewBench(lsm.LSR)
	cycles := 0
	for i := 0; i < b.N; i++ {
		c, err := bench.ResetOp()
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "cycles/op")
}

// BenchmarkTable6UserPush measures a user push (paper: 3 cycles).
func BenchmarkTable6UserPush(b *testing.B) {
	bench := lsm.NewBench(lsm.LSR)
	cycles := 0
	for i := 0; i < b.N; i++ {
		c, err := bench.UserPush(label.Entry{Label: 40, TTL: 64})
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
		if _, _, err := bench.UserPop(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "cycles/op")
}

// BenchmarkTable6WritePair measures an information base write (paper: 3).
func BenchmarkTable6WritePair(b *testing.B) {
	bench := lsm.NewBench(lsm.LSR)
	cycles := 0
	for i := 0; i < b.N; i++ {
		if bench.HW.WriteCount(infobase.Level2) >= infobase.EntriesPerLevel {
			var err error
			if _, err = bench.ResetOp(); err != nil {
				b.Fatal(err)
			}
		}
		c, err := bench.WritePair(infobase.Level2, infobase.Pair{Index: 1, NewLabel: 2, Op: label.OpSwap})
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "cycles/op")
}

// BenchmarkTable6Search measures the 3n+5 linear search at several table
// sizes (paper: 3n+5 worst case).
func BenchmarkTable6Search(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1024} {
		b.Run(benchName("n", n), func(b *testing.B) {
			bench := lsm.NewBench(lsm.LSR)
			for i := 0; i < n; i++ {
				if _, err := bench.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(i + 1), NewLabel: 5, Op: label.OpSwap}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			cycles := 0
			for i := 0; i < b.N; i++ {
				_, c, err := bench.Lookup(infobase.Level2, 999999) // miss: scans all n
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "cycles/op")
			if cycles != lsm.SearchCycles(n) {
				b.Fatalf("search over %d entries took %d cycles, model says %d", n, cycles, lsm.SearchCycles(n))
			}
		})
	}
}

// BenchmarkTable6SwapFromIB measures the swap tail (paper: 6 cycles
// beyond the search).
func BenchmarkTable6SwapFromIB(b *testing.B) {
	bench := lsm.NewBench(lsm.LSR)
	if _, err := bench.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpSwap}); err != nil {
		b.Fatal(err)
	}
	if _, err := bench.WritePair(infobase.Level2, infobase.Pair{Index: 9, NewLabel: 42, Op: label.OpSwap}); err != nil {
		b.Fatal(err)
	}
	if _, err := bench.UserPush(label.Entry{Label: 42, TTL: 255}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	tail := 0
	for i := 0; i < b.N; i++ {
		res, c, err := bench.Update(lsm.UpdateRequest{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Discarded() {
			// TTL ran out after many swaps; reload the stack.
			b.StopTimer()
			if _, err := bench.UserPush(label.Entry{Label: 42, TTL: 255}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		tail = c - lsm.SearchCycles(res.SearchPos)
	}
	b.ReportMetric(float64(tail), "tail-cycles/op")
}

// BenchmarkWorstCase6167 runs the paper's composite worst case end to end
// on the RTL model (paper: 6167 cycles = ~0.1233 ms at 50 MHz).
func BenchmarkWorstCase6167(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		bench := lsm.NewBench(lsm.LSR)
		total = 0
		c, err := bench.ResetOp()
		if err != nil {
			b.Fatal(err)
		}
		total += c
		for j := 0; j < 3; j++ {
			if c, err = bench.UserPush(label.Entry{Label: label.Label(40 + j), TTL: 64}); err != nil {
				b.Fatal(err)
			}
			total += c
		}
		for j := 0; j < infobase.EntriesPerLevel; j++ {
			idx := infobase.Key(10000 + j)
			if j == infobase.EntriesPerLevel-1 {
				idx = 42
			}
			if c, err = bench.WritePair(infobase.Level3, infobase.Pair{Index: idx, NewLabel: 900, Op: label.OpSwap}); err != nil {
				b.Fatal(err)
			}
			total += c
		}
		if _, c, err = bench.Update(lsm.UpdateRequest{}); err != nil {
			b.Fatal(err)
		}
		total += c
	}
	if total != 6167 {
		b.Fatalf("worst case = %d cycles, paper says 6167", total)
	}
	b.ReportMetric(float64(total), "cycles/scenario")
	b.ReportMetric(lsm.DefaultClock.Seconds(total)*1e3, "ms@50MHz")
}

// --- Figures 14-16 -------------------------------------------------------

// BenchmarkFig14Level1Lookup regenerates Figure 14 per iteration.
func BenchmarkFig14Level1Lookup(b *testing.B) {
	benchFigure(b, lsm.Figure14, true, 504)
}

// BenchmarkFig15Level2Lookup regenerates Figure 15 per iteration.
func BenchmarkFig15Level2Lookup(b *testing.B) {
	benchFigure(b, lsm.Figure15, true, 504)
}

// BenchmarkFig16LookupMiss regenerates Figure 16 per iteration.
func BenchmarkFig16LookupMiss(b *testing.B) {
	benchFigure(b, lsm.Figure16, false, 0)
}

func benchFigure(b *testing.B, fig func() (*lsm.FigureTrace, error), wantFound bool, wantLabel label.Label) {
	b.Helper()
	cycles := 0
	for i := 0; i < b.N; i++ {
		tr, err := fig()
		if err != nil {
			b.Fatal(err)
		}
		if tr.Result.Found != wantFound || (wantFound && tr.Result.Label != wantLabel) {
			b.Fatalf("figure result %+v", tr.Result)
		}
		cycles = tr.Cycles
	}
	b.ReportMetric(float64(cycles), "lookup-cycles")
}

// --- X1: hardware vs software per-packet label operation ----------------

// BenchmarkHardwareVsSoftware compares the worst-case per-packet swap:
// the embedded device (cycle model, reported as a metric) against the
// software forwarder (measured ns/op on this host) as the table grows.
func BenchmarkHardwareVsSoftware(b *testing.B) {
	for _, n := range []int{1, 16, 256, 1024} {
		b.Run(benchName("sw/ilm", n), func(b *testing.B) {
			f := swmpls.New()
			for i := 0; i < n; i++ {
				if err := f.MapLabel(label.Label(16+i), swmpls.NHLFE{NextHop: "x", Op: label.OpSwap, PushLabels: []label.Label{label.Label(200000 + i)}}); err != nil {
					b.Fatal(err)
				}
			}
			target := label.Label(16 + n - 1)
			p := packet.New(1, 2, 64, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Stack.Reset()
				_ = p.Stack.Push(label.Entry{Label: target, TTL: 64})
				if res := f.Forward(p); res.Action != swmpls.Forward {
					b.Fatal("software swap failed")
				}
			}
		})
		b.Run(benchName("hw/model", n), func(b *testing.B) {
			// The device transformation runs behaviorally; the hardware
			// time is its verified cycle count at 50 MHz.
			d := deviceWithILM(b, n)
			target := label.Label(16 + n - 1)
			p := packet.New(1, 2, 64, nil)
			cycles := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Stack.Reset()
				_ = p.Stack.Push(label.Entry{Label: target, TTL: 64})
				res, c := d.Device.Process(p)
				if res.Action != swmpls.Forward {
					b.Fatal("hardware swap failed")
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "hw-cycles/op")
			b.ReportMetric(lsm.DefaultClock.Nanos(cycles), "hw-ns/op")
		})
	}
}

// --- X3: linear search vs associative (CAM) ablation ---------------------

// BenchmarkSearchLinearVsCAM contrasts the paper's linear information
// base search (3n+5 cycles) with the content-addressable ablation
// (constant cycles), both measured on the RTL model: the lookup key is
// the last-written entry, the linear design's worst case.
func BenchmarkSearchLinearVsCAM(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		for _, kind := range []lsm.SearchKind{lsm.SearchLinear, lsm.SearchCAM} {
			kind := kind
			b.Run(benchName(kind.String(), n), func(b *testing.B) {
				bench := lsm.NewBenchWith(lsm.LSR, lsm.Options{Search: kind})
				for i := 0; i < n; i++ {
					if _, err := bench.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(i + 1), NewLabel: 5, Op: label.OpSwap}); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				cycles := 0
				for i := 0; i < b.N; i++ {
					res, c, err := bench.Lookup(infobase.Level2, infobase.Key(n))
					if err != nil {
						b.Fatal(err)
					}
					if !res.Found {
						b.Fatal("worst-case key not found")
					}
					cycles = c
				}
				if cycles != lsm.SearchCyclesFor(kind, n) {
					b.Fatalf("%v search over %d entries = %d cycles, model says %d",
						kind, n, cycles, lsm.SearchCyclesFor(kind, n))
				}
				b.ReportMetric(float64(cycles), "cycles/lookup")
			})
		}
	}
}

// --- X5: label switching vs conventional IP forwarding --------------------

// BenchmarkIPRouteVsILM contrasts the bare per-hop lookup structures: the
// MPLS incoming label map (one hash probe) against IP longest-prefix
// match over a FIB with mixed prefix lengths (up to 33 masked probes) —
// the data-plane argument for label switching that motivated MPLS.
func BenchmarkIPRouteVsILM(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(benchName("ip-lpm", n), func(b *testing.B) {
			t := iproute.NewTable()
			// A realistic FIB mixes prefix lengths, so misses probe many
			// length buckets before matching.
			lens := []int{8, 16, 22, 24}
			for i := 0; i < n; i++ {
				if err := t.Add(packet.Addr(uint32(i)<<10), lens[i%len(lens)], "next"); err != nil {
					b.Fatal(err)
				}
			}
			addr := packet.Addr(uint32(n-4)<<10 | 9) // matches a /8 after probing 32..9
			if _, ok := t.Lookup(addr); !ok {
				b.Fatal("route missing")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := t.Lookup(addr); !ok {
					b.Fatal("route missing")
				}
			}
		})
		b.Run(benchName("mpls-ilm", n), func(b *testing.B) {
			f := swmpls.New()
			for i := 0; i < n; i++ {
				if err := f.MapLabel(label.Label(16+i), swmpls.NHLFE{NextHop: "next", Op: label.OpSwap, PushLabels: []label.Label{17}}); err != nil {
					b.Fatal(err)
				}
			}
			target := label.Label(16 + n - 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := f.LookupILM(target); !ok {
					b.Fatal("label missing")
				}
			}
		})
	}
}

// --- X4: tunnel depth ----------------------------------------------------

// BenchmarkTunnelDepth measures per-hop device cycles as the label stack
// deepens (depth 1..3): loading costs 3 cycles per entry and the search
// level shifts with depth.
func BenchmarkTunnelDepth(b *testing.B) {
	for depth := 1; depth <= label.MaxDepth; depth++ {
		depth := depth
		b.Run(benchName("depth", depth), func(b *testing.B) {
			d := deviceWithILM(b, 8)
			p := packet.New(1, 2, 64, nil)
			cycles := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Stack.Reset()
				for j := 0; j < depth-1; j++ {
					_ = p.Stack.Push(label.Entry{Label: label.Label(1000 + j), TTL: 64})
				}
				_ = p.Stack.Push(label.Entry{Label: 16, TTL: 64})
				res, c := d.Device.Process(p)
				if res.Action != swmpls.Forward {
					b.Fatal("swap failed")
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "hw-cycles/op")
		})
	}
}

// --- X2: end-to-end VoIP QoS ----------------------------------------------

// BenchmarkVoIPQoS runs the motivating scenario (VoIP sharing a congested
// core with bulk data) under FIFO and CoS scheduling and reports the
// voice p99 latency for each; the CoS number must be dramatically lower.
func BenchmarkVoIPQoS(b *testing.B) {
	run := func(b *testing.B, cos bool) float64 {
		var newQueue func(int) qos.Scheduler
		if cos {
			newQueue = func(c int) qos.Scheduler { return qos.NewPriority(c) }
		}
		net, err := router.Build(
			[]router.NodeSpec{
				{Name: "in", Hardware: true, RouterType: lsm.LER},
				{Name: "c1", Hardware: true, RouterType: lsm.LSR},
				{Name: "out", Hardware: true, RouterType: lsm.LER},
			},
			[]router.LinkSpec{
				{A: "in", B: "c1", RateBPS: 10e6, Delay: 0.001, NewQueue: newQueue},
				{A: "c1", B: "out", RateBPS: 2e6, Delay: 0.004, NewQueue: newQueue},
			},
		)
		if err != nil {
			b.Fatal(err)
		}
		voiceDst := packet.AddrFrom(10, 9, 0, 1)
		bulkDst := packet.AddrFrom(10, 9, 0, 2)
		path := []string{"in", "c1", "out"}
		establish(b, net,
			ldp.SetupRequest{ID: "v", FEC: ldp.FEC{Dst: voiceDst, PrefixLen: 32}, Path: path, CoS: 5},
			ldp.SetupRequest{ID: "b", FEC: ldp.FEC{Dst: bulkDst, PrefixLen: 32}, Path: path, CoS: 0})
		stop := net.Sim.Now() + 1
		c := trafficgen.NewCollector(net.Sim)
		c.Attach(net.Router("out"))
		trafficgen.VoIP(trafficgen.Flow{ID: 1, Dst: voiceDst}, 0, stop).Install(net.Sim, net.Router("in"), c)
		trafficgen.Bulk{Flow: trafficgen.Flow{ID: 2, Dst: bulkDst}, Size: 1188, RateBPS: 4e6, Stop: stop}.
			Install(net.Sim, net.Router("in"), c)
		net.Sim.Run()
		return c.Flow(1).Latency.Percentile(99)
	}

	b.Run("fifo", func(b *testing.B) {
		var p99 float64
		for i := 0; i < b.N; i++ {
			p99 = run(b, false)
		}
		b.ReportMetric(p99*1e3, "voice-p99-ms")
	})
	b.Run("cos", func(b *testing.B) {
		var p99 float64
		for i := 0; i < b.N; i++ {
			p99 = run(b, true)
		}
		b.ReportMetric(p99*1e3, "voice-p99-ms")
	})
}

// --- X7: scheduling and discard disciplines --------------------------------

// BenchmarkQoSDisciplines runs the same voice+bulk congestion scenario
// under every scheduler the CoS bits can drive — FIFO, strict priority,
// WRR and WRED — and reports voice p99 latency and loss for each. The
// paper's claim is only that the CoS bits "affect the scheduling and/or
// discard algorithms"; this quantifies how much each algorithm buys.
func BenchmarkQoSDisciplines(b *testing.B) {
	disciplines := []struct {
		name     string
		newQueue func(int) qos.Scheduler
	}{
		{"fifo", nil},
		{"priority", func(c int) qos.Scheduler { return qos.NewPriority(c) }},
		{"wrr", func(c int) qos.Scheduler {
			return qos.NewWRR(c, [qos.NumClasses]int{1, 1, 1, 1, 1, 8, 8, 8})
		}},
		{"wred", func(c int) qos.Scheduler {
			var prof [qos.NumClasses]qos.REDParams
			for i := range prof {
				prof[i] = qos.REDParams{MinTh: 4, MaxTh: 24, MaxP: 0.8}
			}
			prof[5] = qos.REDParams{MinTh: 40, MaxTh: 60, MaxP: 0.05}
			return qos.NewWRED(c, prof, 1)
		}},
	}
	for _, disc := range disciplines {
		disc := disc
		b.Run(disc.name, func(b *testing.B) {
			var p99, loss float64
			for i := 0; i < b.N; i++ {
				net, err := router.Build(
					[]router.NodeSpec{
						{Name: "in", Hardware: true, RouterType: lsm.LER},
						{Name: "out", Hardware: true, RouterType: lsm.LER},
					},
					[]router.LinkSpec{{A: "in", B: "out", RateBPS: 2e6, Delay: 0.004, QueueCap: 64, NewQueue: disc.newQueue}},
				)
				if err != nil {
					b.Fatal(err)
				}
				voiceDst := packet.AddrFrom(10, 9, 0, 1)
				bulkDst := packet.AddrFrom(10, 9, 0, 2)
				path := []string{"in", "out"}
				establish(b, net,
					ldp.SetupRequest{ID: "v", FEC: ldp.FEC{Dst: voiceDst, PrefixLen: 32}, Path: path, CoS: 5},
					ldp.SetupRequest{ID: "b", FEC: ldp.FEC{Dst: bulkDst, PrefixLen: 32}, Path: path, CoS: 0})
				stop := net.Sim.Now() + 1
				c := trafficgen.NewCollector(net.Sim)
				c.Attach(net.Router("out"))
				trafficgen.VoIP(trafficgen.Flow{ID: 1, Dst: voiceDst}, 0, stop).Install(net.Sim, net.Router("in"), c)
				trafficgen.Bulk{Flow: trafficgen.Flow{ID: 2, Dst: bulkDst}, Size: 1188, RateBPS: 4e6, Stop: stop}.
					Install(net.Sim, net.Router("in"), c)
				net.Sim.Run()
				p99 = c.Flow(1).Latency.Percentile(99)
				loss = c.Flow(1).LossRate()
			}
			b.ReportMetric(p99*1e3, "voice-p99-ms")
			b.ReportMetric(loss*100, "voice-loss-%")
		})
	}
}

// --- end-to-end simulator throughput ---------------------------------------

// BenchmarkNetworkForwarding pushes packets through a 4-hop LSP on the
// discrete-event simulator (hardware and software planes) and reports how
// many simulated packets the host sustains per second — the cost of the
// whole stack: generators, engine serialisation, links, queues, data
// plane and statistics.
func BenchmarkNetworkForwarding(b *testing.B) {
	for _, hw := range []bool{false, true} {
		name := "software"
		if hw {
			name = "hardware"
		}
		b.Run(name, func(b *testing.B) {
			dst := packet.AddrFrom(10, 0, 0, 1)
			nodes := []router.NodeSpec{
				{Name: "r0", Hardware: hw, RouterType: lsm.LER},
				{Name: "r1", Hardware: hw, RouterType: lsm.LSR},
				{Name: "r2", Hardware: hw, RouterType: lsm.LSR},
				{Name: "r3", Hardware: hw, RouterType: lsm.LER},
			}
			var links []router.LinkSpec
			for i := 0; i < 3; i++ {
				links = append(links, router.LinkSpec{
					A: nodes[i].Name, B: nodes[i+1].Name,
					RateBPS: 1e9, Delay: 1e-5, QueueCap: 1024,
				})
			}
			net, err := router.Build(nodes, links)
			if err != nil {
				b.Fatal(err)
			}
			establish(b, net, ldp.SetupRequest{
				ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32},
				Path: []string{"r0", "r1", "r2", "r3"},
			})
			delivered := 0
			net.Router("r3").OnDeliver = func(*packet.Packet) { delivered++ }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Router("r0").Inject(packet.New(1, dst, 64, make([]byte, 256)))
				net.Sim.Run()
			}
			b.StopTimer()
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-pkts/s")
		})
	}
}

// --- helpers --------------------------------------------------------------

// establish signals reqs through a speaker on every router of net, then
// stops the speakers: a static network whose clock reads the time the
// LSPs came up.
func establish(b *testing.B, net *router.Network, reqs ...ldp.SetupRequest) {
	b.Helper()
	speakers, err := signaling.Deploy(net)
	if err != nil {
		b.Fatal(err)
	}
	if err := signaling.Establish(net, speakers, reqs...); err != nil {
		b.Fatal(err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}
}

func deviceWithILM(b *testing.B, n int) *router.HardwarePlane {
	b.Helper()
	net, err := router.Build([]router.NodeSpec{{Name: "r", Hardware: true, RouterType: lsm.LSR}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	plane := net.Router("r").Plane().(*router.HardwarePlane)
	for i := 0; i < n; i++ {
		if err := plane.InstallILM(label.Label(16+i), swmpls.NHLFE{NextHop: "x", Op: label.OpSwap, PushLabels: []label.Label{label.Label(200000 + i)}}); err != nil {
			b.Fatal(err)
		}
	}
	return plane
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
