// mplssim runs MPLS network scenarios on the discrete-event simulator
// and reports per-flow delivery statistics.
//
// Built-in scenarios:
//
//	line      an N-hop linear LSP carrying CBR traffic
//	tunnel    two edge flows aggregated through a core tunnel (Figure 3)
//	qos       VoIP + bulk over a congested core, FIFO vs CoS scheduling
//	failover  a link failure mid-run, repaired by CSPF + make-before-break
//
// A seeded chaos run injects a random fault schedule (link flaps,
// corruption, delay spikes) and -heal turns on the self-healing
// resilience layer, printing its recovery timeline:
//
//	mplssim -chaos 1 -heal
//
// Or run a declarative JSON scenario file:
//
//	mplssim -config scenario.json
//	mplssim -scenario line -hops 4 -plane hw -duration 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"embeddedmpls/internal/config"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/te"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/trafficgen"
)

// traceRing and traceDrops are shared by every network a scenario
// builds (qos builds two), so the dump at the end of main covers the
// whole run.
var (
	traceRing  *telemetry.Ring
	traceDrops telemetry.DropCounters
)

// infoBaseFlag is the -infobase value: the ILM backend stamped onto
// every software-plane node of the built-in scenarios.
var infoBaseFlag string

// buildNet stamps the selected ILM backend onto each node spec and
// builds the network. Hardware nodes ignore the setting (their
// information base is the device's own).
func buildNet(nodes []router.NodeSpec, links []router.LinkSpec) (*router.Network, error) {
	for i := range nodes {
		nodes[i].InfoBase = infoBaseFlag
	}
	return router.Build(nodes, links)
}

// establish deploys a signaling speaker on every router, establishes
// reqs through them and stops their ticking, so the scenario runs on a
// static network with no keepalives beside its traffic. It returns the
// speakers and the time the LSPs were up: the scenario's traffic window
// counts from there.
func establish(net *router.Network, reqs ...ldp.SetupRequest) (map[string]*signaling.Speaker, float64) {
	speakers, err := signaling.Deploy(net)
	check(err)
	check(signaling.Establish(net, speakers, reqs...))
	for _, sp := range speakers {
		sp.Stop()
	}
	return speakers, net.Sim.Now()
}

// attachTelemetry hooks the shared drop counters — and, with -trace,
// the label-operation ring — onto every router of a freshly built
// network.
func attachTelemetry(net *router.Network) {
	net.SetTelemetry(telemetry.Sink{Drops: &traceDrops, Trace: traceRing})
}

// dumpTelemetry prints the trace ring and any nonzero per-reason drop
// counts after the scenarios have run. Without -trace it prints
// nothing extra unless packets were dropped.
func dumpTelemetry() {
	if traceRing != nil {
		fmt.Printf("\nlabel-operation trace (last %d of %d events):\n", traceRing.Len(), traceRing.Total())
		check(traceRing.Dump(os.Stdout))
	}
	if traceDrops.Total() > 0 {
		fmt.Println("\ndrops by reason:")
		for r, n := range traceDrops.Snapshot() {
			if n > 0 {
				fmt.Printf("  %-16v %d\n", telemetry.Reason(r), n)
			}
		}
	}
}

func main() {
	scenario := flag.String("scenario", "line", "line, tunnel, qos or failover")
	configPath := flag.String("config", "", "JSON scenario file (overrides -scenario)")
	plane := flag.String("plane", "hw", "data plane: hw (embedded device) or sw (software forwarder)")
	hops := flag.Int("hops", 4, "routers in the line scenario")
	duration := flag.Float64("duration", 2, "simulated seconds of traffic")
	rate := flag.Float64("rate", 10e6, "link rate, bits/second")
	traceN := flag.Int("trace", 0, "record the last N label operations across all routers and dump them after the run")
	chaosSeed := flag.Int64("chaos", -1, "run the chaos scenario with this fault-schedule seed (>= 0)")
	heal := flag.Bool("heal", false, "enable the self-healing resilience layer in the chaos scenario")
	chaosTransport := flag.Bool("transport", false, "back the chaos topology with loopback UDP links (real sockets, wall-clock run)")
	flag.StringVar(&infoBaseFlag, "infobase", "", "ILM backend of software-plane routers: map (default), linear or indexed")
	flag.Parse()

	if *traceN > 0 {
		traceRing = telemetry.NewRing(*traceN)
	}
	if *configPath != "" {
		runConfig(*configPath)
		dumpTelemetry()
		return
	}
	hardware := *plane == "hw"
	if *chaosSeed >= 0 {
		runChaos(*chaosSeed, *heal, hardware, *chaosTransport, *duration, *rate)
		dumpTelemetry()
		return
	}
	switch *scenario {
	case "line":
		runLine(hardware, *hops, *duration, *rate)
	case "tunnel":
		runTunnel(hardware, *duration, *rate)
	case "qos":
		runQoS(*duration)
	case "failover":
		runFailover(hardware, *duration, *rate)
	default:
		log.Fatalf("mplssim: unknown scenario %q", *scenario)
	}
	dumpTelemetry()
}

func runConfig(path string) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	s, err := config.Load(f)
	check(err)
	b, err := s.Build()
	check(err)
	attachTelemetry(b.Net)
	end := b.Run()
	fmt.Printf("scenario %q: simulated %.3fs\n", s.Name, end)
	report(b.Collector, s.DurationS)
}

func runFailover(hardware bool, duration, rate float64) {
	nodes := []router.NodeSpec{
		{Name: "a", Hardware: hardware, RouterType: lsm.LER},
		{Name: "b", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "c", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "d", Hardware: hardware, RouterType: lsm.LER},
	}
	links := []router.LinkSpec{
		{A: "a", B: "b", RateBPS: rate, Delay: 0.001, Metric: 1},
		{A: "b", B: "d", RateBPS: rate, Delay: 0.001, Metric: 1},
		{A: "a", B: "c", RateBPS: rate, Delay: 0.001, Metric: 5},
		{A: "c", B: "d", RateBPS: rate, Delay: 0.001, Metric: 5},
	}
	net, err := buildNet(nodes, links)
	check(err)
	attachTelemetry(net)
	dst := packet.AddrFrom(10, 0, 0, 9)
	req := ldp.SetupRequest{ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}}
	speakers, t0 := establish(net, req)

	c := trafficgen.NewCollector(net.Sim)
	c.TrackSeries(duration / 20)
	c.Attach(net.Router("d"))
	trafficgen.CBR{Flow: trafficgen.Flow{ID: 1, Dst: dst}, Size: 512, Interval: 0.001, Stop: t0 + duration}.
		Install(net.Sim, net.Router("a"), c)

	failAt := duration / 2
	repairAt := failAt + 0.005
	net.Sim.Schedule(failAt, func() {
		check(net.SetLinkDown("a", "b", true))
		fmt.Printf("t=%.3fs: link a-b failed\n", net.Sim.Now())
	})
	net.Sim.Schedule(repairAt, func() {
		repair, err := net.Topo.CSPF(te.PathRequest{From: "a", To: "d", ExcludeNodes: map[string]bool{"b": true}})
		check(err)
		req.Path = repair
		check(speakers["a"].Provision(req, nil))
		fmt.Printf("t=%.3fs: re-provisioning onto %v (make-before-break)\n", net.Sim.Now(), repair)
	})
	net.Sim.Run()

	fmt.Printf("failover scenario (%s plane): %.0f ms outage window\n",
		planeName(hardware), (repairAt-failAt)*1e3)
	report(c, duration)
	lab, _ := net.Router("a").SimLink("b")
	fmt.Printf("packets lost on the failed link: %d\n", lab.Lost.Events)

	// Goodput over time shows the dip and recovery.
	if s := c.Series(1); s != nil {
		fmt.Println("goodput over time (Mbps per bin):")
		for _, b := range s.Bins() {
			bar := int(b.BPS / 1e6 * 4)
			fmt.Printf("  t=%6.3fs %6.2f %s\n", b.Start, b.BPS/1e6, strings.Repeat("#", bar))
		}
		if dip, ok := s.MinCountBin(); ok {
			fmt.Printf("deepest dip: %.2f Mbps in the bin starting t=%.3fs (failure at t=%.3fs)\n",
				dip.BPS/1e6, dip.Start, t0+failAt)
		}
	}
}

func buildLine(hardware bool, hops int, rate float64, newQueue func(int) qos.Scheduler) *router.Network {
	if hops < 2 {
		log.Fatal("mplssim: need at least 2 hops")
	}
	var nodes []router.NodeSpec
	var links []router.LinkSpec
	for i := 0; i < hops; i++ {
		rt := lsm.LSR
		if i == 0 || i == hops-1 {
			rt = lsm.LER
		}
		nodes = append(nodes, router.NodeSpec{Name: nodeName(i), Hardware: hardware, RouterType: rt})
		if i > 0 {
			links = append(links, router.LinkSpec{
				A: nodeName(i - 1), B: nodeName(i),
				RateBPS: rate, Delay: 0.001, QueueCap: 128, NewQueue: newQueue,
			})
		}
	}
	net, err := buildNet(nodes, links)
	check(err)
	attachTelemetry(net)
	return net
}

func nodeName(i int) string { return fmt.Sprintf("r%d", i) }

func runLine(hardware bool, hops int, duration, rate float64) {
	net := buildLine(hardware, hops, rate, nil)
	var path []string
	for i := 0; i < hops; i++ {
		path = append(path, nodeName(i))
	}
	dst := packet.AddrFrom(10, 0, 0, 1)
	_, t0 := establish(net, ldp.SetupRequest{ID: "lsp", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: path})

	c := trafficgen.NewCollector(net.Sim)
	c.Attach(net.Router(nodeName(hops - 1)))
	trafficgen.CBR{
		Flow: trafficgen.Flow{ID: 1, Dst: dst}, Size: 512, Interval: 0.001, Stop: t0 + duration,
	}.Install(net.Sim, net.Router(nodeName(0)), c)
	net.Sim.Run()

	fmt.Printf("line scenario: %d hops, %s plane, %.0f Mbps links\n",
		hops, planeName(hardware), rate/1e6)
	report(c, duration)
}

func runTunnel(hardware bool, duration, rate float64) {
	nodes := []router.NodeSpec{
		{Name: "ler1", Hardware: hardware, RouterType: lsm.LER},
		{Name: "ler2", Hardware: hardware, RouterType: lsm.LER},
		{Name: "head", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "mid", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "tail", Hardware: hardware, RouterType: lsm.LSR},
		{Name: "ler3", Hardware: hardware, RouterType: lsm.LER},
		{Name: "ler4", Hardware: hardware, RouterType: lsm.LER},
	}
	var links []router.LinkSpec
	for _, pair := range [][2]string{
		{"ler1", "head"}, {"ler2", "head"}, {"head", "mid"},
		{"mid", "tail"}, {"tail", "ler3"}, {"tail", "ler4"},
	} {
		links = append(links, router.LinkSpec{A: pair[0], B: pair[1], RateBPS: rate, Delay: 0.001})
	}
	net, err := buildNet(nodes, links)
	check(err)
	attachTelemetry(net)

	dstA := packet.AddrFrom(10, 3, 0, 1)
	dstB := packet.AddrFrom(10, 4, 0, 1)
	_, t0 := establish(net,
		ldp.SetupRequest{ID: "tun", Path: []string{"head", "mid", "tail"}, Tunnel: true},
		ldp.SetupRequest{ID: "a", FEC: ldp.FEC{Dst: dstA, PrefixLen: 32}, Path: []string{"ler1", "head", "tail", "ler3"}},
		ldp.SetupRequest{ID: "b", FEC: ldp.FEC{Dst: dstB, PrefixLen: 32}, Path: []string{"ler2", "head", "tail", "ler4"}},
	)

	c := trafficgen.NewCollector(net.Sim)
	c.Attach(net.Router("ler3"))
	c.Attach(net.Router("ler4"))
	trafficgen.CBR{Flow: trafficgen.Flow{ID: 1, Dst: dstA}, Size: 512, Interval: 0.002, Stop: t0 + duration}.
		Install(net.Sim, net.Router("ler1"), c)
	trafficgen.CBR{Flow: trafficgen.Flow{ID: 2, Dst: dstB}, Size: 512, Interval: 0.002, Stop: t0 + duration}.
		Install(net.Sim, net.Router("ler2"), c)
	net.Sim.Run()

	fmt.Printf("tunnel scenario (%s plane): two flows aggregated head->mid->tail\n", planeName(hardware))
	report(c, duration)
	l, _ := net.Router("head").SimLink("mid")
	fmt.Printf("tunnel link head->mid carried %d packets\n", l.Delivered.Events)
}

func runQoS(duration float64) {
	for _, cos := range []bool{false, true} {
		var newQueue func(int) qos.Scheduler
		name := "FIFO"
		if cos {
			newQueue = func(c int) qos.Scheduler { return qos.NewPriority(c) }
			name = "CoS priority"
		}
		net := buildLine(true, 4, 2e6, newQueue)
		path := []string{"r0", "r1", "r2", "r3"}
		voiceDst := packet.AddrFrom(10, 9, 0, 1)
		bulkDst := packet.AddrFrom(10, 9, 0, 2)
		_, t0 := establish(net,
			ldp.SetupRequest{ID: "voice", FEC: ldp.FEC{Dst: voiceDst, PrefixLen: 32}, Path: path, CoS: 5},
			ldp.SetupRequest{ID: "bulk", FEC: ldp.FEC{Dst: bulkDst, PrefixLen: 32}, Path: path, CoS: 0},
		)

		c := trafficgen.NewCollector(net.Sim)
		c.Attach(net.Router("r3"))
		trafficgen.VoIP(trafficgen.Flow{ID: 1, Dst: voiceDst}, 0, t0+duration).
			Install(net.Sim, net.Router("r0"), c)
		trafficgen.Bulk{Flow: trafficgen.Flow{ID: 2, Dst: bulkDst}, Size: 1188, RateBPS: 4e6, Stop: t0 + duration}.
			Install(net.Sim, net.Router("r0"), c)
		net.Sim.Run()

		fmt.Printf("qos scenario, %s:\n", name)
		report(c, duration)
	}
}

func planeName(hardware bool) string {
	if hardware {
		return "embedded hardware"
	}
	return "software"
}

func report(c *trafficgen.Collector, duration float64) {
	for _, id := range c.FlowIDs() {
		f := c.Flow(id)
		fmt.Printf("  flow %d: sent=%d delivered=%d loss=%.2f%% goodput=%.2f Mbps latency %s\n",
			id, f.Sent.Events, f.Delivered.Events, 100*f.LossRate(),
			f.GoodputBPS(duration)/1e6, f.Latency.Summary("ms", 1e3))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
