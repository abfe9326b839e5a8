package main

import (
	"fmt"
	"os"
	"strings"

	"embeddedmpls/internal/faults"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/resilience"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/trafficgen"
)

// runChaos drives the diamond network through a seeded random fault
// schedule — link flaps, corruption windows and delay spikes on the
// primary path — and, with heal set, lets the resilience layer
// (keepalive monitor + health tracker + protection-switching healer)
// repair the damage. It prints the injected schedule, the recovery
// timeline and the fault/recovery counters, then verifies convergence:
// traffic must be flowing again at the end of the run with no repair
// retries exhausted. With heal set, non-convergence exits nonzero so a
// chaos run can gate CI. With transportUDP the diamond's links are
// loopback UDP sockets instead of simulated queues: the same fault
// schedule then plays out on real datagrams — corruption windows
// surface as wire-decode drops at the receiving socket — and the run
// advances in wall-clock time via RunReal.
func runChaos(seed int64, heal, hardware, transportUDP bool, duration, rate float64) {
	linkKind := router.TransportSim
	if transportUDP {
		linkKind = router.TransportUDP
	}
	nodes := []router.NodeSpec{
		{Name: "a", Hardware: hardware, RouterType: lsm.LER, Transport: linkKind},
		{Name: "b", Hardware: hardware, RouterType: lsm.LSR, Transport: linkKind},
		{Name: "c", Hardware: hardware, RouterType: lsm.LSR, Transport: linkKind},
		{Name: "d", Hardware: hardware, RouterType: lsm.LER, Transport: linkKind},
	}
	links := []router.LinkSpec{
		{A: "a", B: "b", RateBPS: rate, Delay: 0.001, Metric: 1},
		{A: "b", B: "d", RateBPS: rate, Delay: 0.001, Metric: 1},
		{A: "a", B: "c", RateBPS: rate, Delay: 0.001, Metric: 5},
		{A: "c", B: "d", RateBPS: rate, Delay: 0.001, Metric: 5},
	}
	net, err := buildNet(nodes, links)
	check(err)
	defer net.Close()
	attachTelemetry(net)
	dst := packet.AddrFrom(10, 0, 0, 9)

	var events telemetry.EventCounters
	timeline := &resilience.Timeline{}
	var lastPath []string

	// Both modes run the same control plane: every router runs a
	// signaling speaker and the LSP is signalled over sessions. With
	// healing on, repair is a protection-switch *request* at the
	// ingress. Without, the speakers stop ticking once the LSP is up and
	// the network stays static — there is nothing to converge.
	speakers, err := signaling.Deploy(net,
		signaling.WithEvents(&events), signaling.WithUntil(duration))
	check(err)
	speakers["a"].OnEstablished = func(id string, path []string) {
		lastPath = append(lastPath[:0], path...)
	}
	req := ldp.SetupRequest{ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}}
	if heal {
		sh := resilience.BindSessions(speakers["a"], net.Sim, timeline)
		sh.Protect("l", req.Path)

		mon := resilience.NewMonitor(net, net.Sim, resilience.MonitorConfig{
			Interval: 0.005, MissThreshold: 3, Until: duration,
			Events: &events, Timeline: timeline,
		})
		mon.OnDown = sh.LinkDown
		mon.OnUp = sh.LinkUp
		check(mon.WatchBoth("a", "b"))
		check(mon.WatchBoth("b", "d"))
		// Telemetry-fed health: a burst of drops (e.g. a corruption
		// window killing packets mid-path) moves the LSP even when the
		// links still answer keepalives.
		resilience.TrackHealth(net.Sim, resilience.HealthConfig{
			Interval: 0.05, Threshold: 3, Bad: 2, Until: duration,
		}, traceDrops.Total, func(delta uint64) {
			timeline.Add(net.Sim.Now(), "health: %d drops this interval, moving LSP off suspect path", delta)
			sh.Degraded("l")
		})
	}

	inj := faults.NewInjector(net, &events)
	spec := faults.GenSpec{
		Links:    [][2]string{{"a", "b"}, {"b", "d"}},
		Duration: duration * 0.7, Flaps: 2, MeanOutage: duration * 0.05,
		Corruptions: 1, DelaySpikes: 1,
	}
	if heal {
		// Control-plane chaos: go deaf across a link while data still
		// flows. Only meaningful when sessions exist to sever.
		spec.SessionSevers = 1
		inj.SetSessionSever(func(a, b string, d float64) error {
			timeline.Add(net.Sim.Now(), "faults: severing signaling %s<->%s for %.3fs", a, b, d)
			if err := speakers[a].Sever(b, d); err != nil {
				return err
			}
			return speakers[b].Sever(a, d)
		})
	}
	schedule := faults.Generate(seed, spec)
	check(inj.Apply(schedule))
	fmt.Printf("chaos scenario (seed %d, %s plane, heal=%v), injected schedule:\n",
		seed, planeName(hardware), heal)
	for _, e := range schedule.Events {
		fmt.Printf("  %v\n", e)
	}

	c := trafficgen.NewCollector(net.Sim)
	c.TrackSeries(duration / 20)
	c.Attach(net.Router("d"))
	var lastDelivery float64
	prev := net.Router("d").OnDeliver
	net.Router("d").OnDeliver = func(p *packet.Packet) {
		lastDelivery = net.Sim.Now()
		prev(p)
	}
	trafficgen.CBR{Flow: trafficgen.Flow{ID: 1, Dst: dst}, Size: 512, Interval: 0.001, Stop: duration}.
		Install(net.Sim, net.Router("a"), c)

	// The LSP is signalled beside the traffic, whose first packets find
	// no FTN yet at a.
	static := func(error) {
		if !heal {
			for _, sp := range speakers {
				sp.Stop()
			}
		}
	}
	if transportUDP {
		// Real sockets: pump virtual time against the wall clock, with
		// some slack after the last send for in-flight datagrams.
		check(speakers["a"].Setup(req, static))
		net.RunReal(duration + 0.2)
	} else {
		check(signaling.Establish(net, speakers, req))
		static(nil)
		net.Sim.Run()
	}

	fmt.Println("\nrecovery timeline:")
	if timeline.Len() == 0 {
		fmt.Println("  (no recovery actions: healing disabled or no faults bit)")
	} else {
		fmt.Print(timeline)
	}
	fmt.Println("\nfault/recovery events:")
	fmt.Printf("  %v\n", &events)
	report(c, duration)

	fmt.Printf("final LSP path: %s\n", strings.Join(lastPath, " "))

	// Convergence: traffic flowing at the end (the last packet of a
	// healthy run lands within a handful of send intervals of the stop
	// time) and no repair gave up.
	converged := lastDelivery > duration-0.05 && events.Get(telemetry.EventRetryExhausted) == 0
	fmt.Printf("converged: %v (last delivery t=%.3fs of %.3fs)\n", converged, lastDelivery, duration)
	if transportUDP {
		fmt.Printf("transport: %v\n", net.Wire)
	}
	if heal && !converged {
		fmt.Println("chaos: FAILED to converge")
		os.Exit(1)
	}
}
