// VoIPQoS: the paper's motivating workload — "resource intensive
// Internet applications like voice over Internet Protocol and real-time
// streaming video perform poorly when the core network of the Internet is
// relatively congested". Ten VoIP calls share a congested 2 Mbps core
// link with a greedy bulk transfer; the experiment runs the same traffic
// twice:
//
//	FIFO — no QoS: voice queues behind bulk data
//	CoS  — the MPLS CoS bits drive a strict-priority scheduler
//
// and prints voice latency/loss each way. Every router runs the embedded
// hardware data plane.
package main

import (
	"fmt"
	"log"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/trafficgen"
)

const (
	voiceFlows = 10
	bulkFlow   = 100
	runFor     = 5.0
)

type result struct {
	name                string
	p50, p99, max, loss float64
	bulkMbps            float64
}

func main() {
	fifo := run("FIFO (no QoS)", nil)
	cos := run("CoS priority", func(c int) qos.Scheduler { return qos.NewPriority(c) })

	fmt.Println("VoIP over a congested core: FIFO vs MPLS CoS scheduling")
	fmt.Println()
	fmt.Printf("%-16s %12s %12s %12s %11s\n", "discipline", "p50 voice", "p99 voice", "max voice", "voice loss")
	for _, r := range []result{fifo, cos} {
		fmt.Printf("%-16s %10.2fms %10.2fms %10.2fms %9.2f%%\n",
			r.name, r.p50*1e3, r.p99*1e3, r.max*1e3, 100*r.loss)
	}
	fmt.Println()
	fmt.Printf("bulk goodput: FIFO %.2f Mbps, CoS %.2f Mbps (the bottleneck is 2 Mbps)\n",
		fifo.bulkMbps, cos.bulkMbps)
	fmt.Println()
	fmt.Println("With the CoS bits driving the scheduler, voice latency stays flat while")
	fmt.Println("the bulk flow absorbs the queueing — the paper's TE/QoS case for MPLS.")
}

func run(name string, newQueue func(int) qos.Scheduler) result {
	nodes := []router.NodeSpec{
		{Name: "ingress", Hardware: true, RouterType: lsm.LER},
		{Name: "core1", Hardware: true, RouterType: lsm.LSR},
		{Name: "core2", Hardware: true, RouterType: lsm.LSR},
		{Name: "egress", Hardware: true, RouterType: lsm.LER},
	}
	links := []router.LinkSpec{
		{A: "ingress", B: "core1", RateBPS: 10e6, Delay: 0.001, QueueCap: 64, NewQueue: newQueue},
		{A: "core1", B: "core2", RateBPS: 2e6, Delay: 0.004, QueueCap: 64, NewQueue: newQueue}, // bottleneck
		{A: "core2", B: "egress", RateBPS: 10e6, Delay: 0.001, QueueCap: 64, NewQueue: newQueue},
	}
	net, err := router.Build(nodes, links)
	check(err)

	collector := trafficgen.NewCollector(net.Sim)
	collector.Attach(net.Router("egress"))

	path := []string{"ingress", "core1", "core2", "egress"}

	// Voice LSP at CoS 5, bulk LSP at CoS 0: the ingress LER stamps the
	// class into the label stack entry and the core schedulers act on it.
	// The speakers that signal them stop ticking once they are up.
	voiceDst := packet.AddrFrom(10, 9, 0, 1)
	bulkDst := packet.AddrFrom(10, 9, 0, 2)
	speakers, err := signaling.Deploy(net)
	check(err)
	check(signaling.Establish(net, speakers,
		ldp.SetupRequest{ID: "voice", FEC: ldp.FEC{Dst: voiceDst, PrefixLen: 32}, Path: path, CoS: 5},
		ldp.SetupRequest{ID: "bulk", FEC: ldp.FEC{Dst: bulkDst, PrefixLen: 32}, Path: path, CoS: 0},
	))
	for _, sp := range speakers {
		sp.Stop()
	}

	stop := net.Sim.Now() + runFor
	for i := 0; i < voiceFlows; i++ {
		trafficgen.VoIP(trafficgen.Flow{
			ID:  uint16(i + 1),
			Src: packet.AddrFrom(10, 1, 0, byte(i+1)),
			Dst: voiceDst,
		}, 0, stop).Install(net.Sim, net.Router("ingress"), collector)
	}
	trafficgen.Bulk{
		Flow:    trafficgen.Flow{ID: bulkFlow, Src: packet.AddrFrom(10, 2, 0, 1), Dst: bulkDst},
		Size:    1188,
		RateBPS: 4e6, // 2x the bottleneck
		Stop:    stop,
	}.Install(net.Sim, net.Router("ingress"), collector)

	net.Sim.Run()

	agg := result{name: name}
	for i := 0; i < voiceFlows; i++ {
		f := collector.Flow(uint16(i + 1))
		agg.p50 += f.Latency.Percentile(50) / voiceFlows
		agg.p99 += f.Latency.Percentile(99) / voiceFlows
		agg.loss += f.LossRate() / voiceFlows
		if m := f.Latency.Max(); m > agg.max {
			agg.max = m
		}
	}
	agg.bulkMbps = collector.Flow(bulkFlow).GoodputBPS(runFor) / 1e6
	return agg
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
