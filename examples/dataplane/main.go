// Example dataplane builds the 4-node line of the basic LSP scenario —
// ingress LER, two transit LSRs, egress LER — but runs every node as a
// concurrent forwarding engine with 4 shard workers, chained through
// their batch egress sinks: a worker on one node flushes its staged
// egress ring straight into the next node's shard queues, whole
// batches at a time, like line cards pushing onto a backplane. 100k
// packets across 256 flows enter unlabelled, get a label pushed,
// swapped twice, popped, and counted at the far end.
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

const (
	workers = 4
	flows   = 256
	count   = 100_000
)

func main() {
	dst := packet.AddrFrom(10, 0, 0, 9)
	var received atomic.Uint64

	// Build back to front so each node can hand off to the next.
	egress := newNode("egress", counter{&received})
	lsr2 := newNode("lsr2", handoff{egress})
	lsr1 := newNode("lsr1", handoff{lsr2})
	ingress := newNode("ingress", handoff{lsr1})
	nodes := []*node{ingress, lsr1, lsr2, egress}

	// Program the LSP: push 100 at the ingress, swap 100->200->300
	// through the transits, pop at the egress (empty next hop = deliver).
	check(ingress.eng.InstallFEC(dst, 32, swmpls.NHLFE{
		NextHop: "lsr1", Op: label.OpPush, PushLabels: []label.Label{100},
	}))
	check(lsr1.eng.InstallILM(100, swmpls.NHLFE{
		NextHop: "lsr2", Op: label.OpSwap, PushLabels: []label.Label{200},
	}))
	check(lsr2.eng.InstallILM(200, swmpls.NHLFE{
		NextHop: "egress", Op: label.OpSwap, PushLabels: []label.Label{300},
	}))
	check(egress.eng.InstallILM(300, swmpls.NHLFE{Op: label.OpPop}))

	fmt.Printf("4-node line, %d shard workers per node, %d packets over %d flows\n\n",
		workers, count, flows)
	start := time.Now()
	one := make([]*packet.Packet, 1)
	for i := 0; i < count; i++ {
		p := packet.New(packet.AddrFrom(192, 0, 2, byte(i%flows)), dst, 64, nil)
		p.Header.FlowID = uint16(i % flows)
		one[0] = p
		ingress.eng.Submit(one, dataplane.SubmitOpts{Wait: true})
	}
	// Close front to back: each Close drains that node's queues, so
	// everything in flight lands before the next node shuts.
	for _, n := range nodes {
		n.eng.Close()
	}
	elapsed := time.Since(start)

	fmt.Printf("%-8s %10s %10s %10s %12s\n", "node", "processed", "fwd", "qdrop", "busy(max)")
	for _, n := range nodes {
		snap := n.eng.Snapshot()
		var busiest float64
		for _, b := range snap.WorkerBusy {
			if b > busiest {
				busiest = b
			}
		}
		fmt.Printf("%-8s %10d %10d %10d %11.1fms\n",
			n.name, snap.Processed(), snap.Forwarded.Events, snap.QueueDropped, busiest*1e3)
	}
	fmt.Printf("\ndelivered %d/%d packets in %v (%.0f pkts/sec end to end, 4 label ops each)\n",
		received.Load(), count, elapsed.Round(time.Millisecond),
		float64(received.Load())/elapsed.Seconds())

	// The same data in scrapeable form: every node registers into one
	// registry (distinguished by its node label), exactly as a metrics
	// endpoint would serve them. The ingress alone keeps the example's
	// output readable; swap in the loop over nodes to see the whole line.
	fmt.Println("\nPrometheus exposition (ingress node):")
	reg := telemetry.NewRegistry()
	ingress.eng.RegisterMetrics(reg, telemetry.Labels{"example": "line"})
	check(reg.WriteText(os.Stdout))
}

type node struct {
	name string
	eng  *dataplane.Engine
}

func newNode(name string, sink dataplane.Egress) *node {
	return &node{name: name, eng: dataplane.New(
		dataplane.WithWorkers(workers),
		dataplane.WithNode(name),
		dataplane.WithEgress(sink),
	)}
}

// handoff forwards one node's flushed egress batches into the next
// node's queues, blocking for space so the line applies backpressure
// instead of loss.
type handoff struct{ next *node }

func (h handoff) Flush(_ string, ps []*packet.Packet) {
	h.next.eng.Submit(ps, dataplane.SubmitOpts{Wait: true})
}
func (h handoff) Deliver([]*packet.Packet)                      {}
func (h handoff) Discard([]*packet.Packet, []swmpls.DropReason) {}

// counter tallies the packets the egress LER delivers to the IP side.
type counter struct{ received *atomic.Uint64 }

func (c counter) Flush(string, []*packet.Packet)                {}
func (c counter) Deliver(ps []*packet.Packet)                   { c.received.Add(uint64(len(ps))) }
func (c counter) Discard([]*packet.Packet, []swmpls.DropReason) {}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
