package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

func lineNet(t *testing.T) *router.Network {
	t.Helper()
	nodes := []router.NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LER},
	}
	links := []router.LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.001},
		{A: "b", B: "c", RateBPS: 10e6, Delay: 0.001},
	}
	n, err := router.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{
		Links: [][2]string{{"a", "b"}, {"b", "c"}}, Duration: 2,
		Flaps: 3, Corruptions: 2, DelaySpikes: 2,
	}
	s1 := Generate(42, spec)
	s2 := Generate(42, spec)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed produced different schedules")
	}
	s3 := Generate(7, spec)
	if reflect.DeepEqual(s1.Events, s3.Events) {
		t.Error("different seeds produced identical schedules")
	}
	if len(s1.Events) != 2*spec.Flaps+spec.Corruptions+spec.DelaySpikes {
		t.Errorf("got %d events", len(s1.Events))
	}
	for i := 1; i < len(s1.Events); i++ {
		if s1.Events[i].At < s1.Events[i-1].At {
			t.Fatalf("events not time-ordered: %v", s1.Events)
		}
	}
}

func TestGenerateEmpty(t *testing.T) {
	if s := Generate(1, GenSpec{}); len(s.Events) != 0 {
		t.Errorf("empty spec produced %d events", len(s.Events))
	}
}

func TestInjectorLinkFlap(t *testing.T) {
	n := lineNet(t)
	var ev telemetry.EventCounters
	in := NewInjector(n, &ev)
	s := Schedule{Events: []Event{
		{At: 0.1, Kind: LinkDown, A: "a", B: "b"},
		{At: 0.2, Kind: LinkUp, A: "a", B: "b"},
	}}
	if err := in.Apply(s); err != nil {
		t.Fatal(err)
	}
	l, _ := n.Router("a").Link("b")
	n.Sim.RunUntil(0.15)
	if !l.Down() {
		t.Error("link not down at t=0.15")
	}
	n.Sim.RunUntil(0.25)
	if l.Down() {
		t.Error("link not restored at t=0.25")
	}
	if got := ev.Get(telemetry.EventLinkFlap); got != 1 {
		t.Errorf("link_flap = %d, want 1", got)
	}
	if len(in.Log()) != 2 {
		t.Errorf("log = %v", in.Log())
	}
}

func TestInjectorRejectsUnknownLink(t *testing.T) {
	n := lineNet(t)
	in := NewInjector(n, nil)
	err := in.Apply(Schedule{Events: []Event{{At: 0, Kind: LinkDown, A: "a", B: "ghost"}}})
	if err == nil {
		t.Error("unknown link accepted")
	}
	err = in.Apply(Schedule{Events: []Event{{At: 0, Kind: Corrupt, A: "a", B: "c"}}})
	if err == nil {
		t.Error("nonexistent link accepted")
	}
}

// setupLineLSP signals a->b->c, stops the speakers so the line is a
// static network, and returns the destination.
func setupLineLSP(t *testing.T, n *router.Network) packet.Addr {
	t.Helper()
	dst := packet.AddrFrom(10, 0, 0, 1)
	speakers, err := signaling.Deploy(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := signaling.Establish(n, speakers, ldp.SetupRequest{
		ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "c"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}
	return dst
}

func TestCorruptionCausesLookupMiss(t *testing.T) {
	n := lineNet(t)
	dst := setupLineLSP(t, n)
	var drops telemetry.DropCounters
	n.SetTelemetry(telemetry.Sink{Drops: &drops})

	in := NewInjector(n, nil)
	// Corrupt every packet on a->b from t=0.05 for 0.1s.
	if err := in.Apply(Schedule{Seed: 3, Events: []Event{
		{At: 0.05, Kind: Corrupt, A: "a", B: "b", Duration: 0.1, Every: 1},
	}}); err != nil {
		t.Fatal(err)
	}

	delivered := 0
	n.Router("c").OnDeliver = func(*packet.Packet) { delivered++ }
	for i := 0; i < 20; i++ {
		i := i
		n.Sim.Schedule(float64(i)*0.01, func() {
			n.Router("a").Inject(packet.New(1, dst, 64, make([]byte, 64)))
		})
	}
	n.Sim.Run()

	// Packets sent in [0.05, 0.15) were corrupted on the wire and died
	// at b with the paper's lookup-miss discard.
	if miss := drops.Get(telemetry.ReasonLookupMiss); miss == 0 {
		t.Error("corruption produced no lookup-miss drops")
	}
	if delivered == 20 {
		t.Error("corruption did not reduce delivery")
	}
	if delivered == 0 {
		t.Error("all packets lost — corruption window leaked outside [0.05,0.15)")
	}
}

func TestDelaySpikeStretchesLatency(t *testing.T) {
	latency := func(spike bool) float64 {
		n := lineNet(t)
		dst := setupLineLSP(t, n)
		if spike {
			in := NewInjector(n, nil)
			if err := in.Apply(Schedule{Events: []Event{
				{At: 0, Kind: DelaySpike, A: "a", B: "b", Duration: 1, Extra: 0.010},
			}}); err != nil {
				t.Fatal(err)
			}
		}
		var got float64
		n.Router("c").OnDeliver = func(p *packet.Packet) { got = n.Sim.Now() - p.SentAt }
		n.Sim.Schedule(0.01, func() {
			p := packet.New(1, dst, 64, make([]byte, 64))
			p.SentAt = n.Sim.Now()
			n.Router("a").Inject(p)
		})
		n.Sim.Run()
		return got
	}
	base, spiked := latency(false), latency(true)
	if spiked < base+0.009 {
		t.Errorf("delay spike did not bite: base %.4fs spiked %.4fs", base, spiked)
	}
}

func TestShardStallStillProcesses(t *testing.T) {
	e := dataplane.New(dataplane.WithWorkers(2), dataplane.WithQueueCap(64), dataplane.WithBatch(4))
	defer e.Close()
	e.SetStallHook(ShardStall(2, 100*time.Microsecond))
	if err := e.InstallILM(100, swmpls.NHLFE{NextHop: "p", Op: label.OpSwap, PushLabels: []label.Label{200}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := packet.New(1, packet.AddrFrom(10, 0, 0, 1), 64, nil)
		p.Header.FlowID = uint16(i)
		if err := p.Stack.Push(label.Entry{Label: 100, TTL: 64}); err != nil {
			t.Fatal(err)
		}
		e.Submit([]*packet.Packet{p}, dataplane.SubmitOpts{Wait: true})
	}
	e.Close()
	s := e.Snapshot()
	if s.Processed() != 200 {
		t.Errorf("processed %d of 200 under stall", s.Processed())
	}
}

func TestFailFirst(t *testing.T) {
	h := FailFirst(2)
	if err := h(); !errors.Is(err, ErrInjected) {
		t.Errorf("call 1: %v", err)
	}
	if err := h(); !errors.Is(err, ErrInjected) {
		t.Errorf("call 2: %v", err)
	}
	if err := h(); err != nil {
		t.Errorf("call 3: %v", err)
	}
}

func TestFailEvery(t *testing.T) {
	h := FailEvery(3)
	var fails int
	for i := 0; i < 9; i++ {
		if h() != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("fails = %d, want 3", fails)
	}
}

func TestWriteFailuresHookOnInfobase(t *testing.T) {
	ib := infobase.New()
	ib.SetWriteHook(WriteFailures(FailFirst(1)))
	p := infobase.Pair{Index: 5, NewLabel: 100, Op: label.OpSwap}
	if err := ib.Write(infobase.Level2, p); !errors.Is(err, ErrInjected) {
		t.Errorf("first write: %v", err)
	}
	if got := ib.Count(infobase.Level2); got != 0 {
		t.Errorf("failed write stored a pair: count=%d", got)
	}
	if err := ib.Write(infobase.Level2, p); err != nil {
		t.Errorf("second write: %v", err)
	}
	ib.SetWriteHook(nil)
	if err := ib.Write(infobase.Level2, infobase.Pair{Index: 6, NewLabel: 101, Op: label.OpSwap}); err != nil {
		t.Errorf("hook removal: %v", err)
	}
}

func TestPublishHookFailsUpdate(t *testing.T) {
	e := dataplane.New(dataplane.WithWorkers(1))
	defer e.Close()
	e.SetPublishHook(FailFirst(1))
	err := e.InstallILM(100, swmpls.NHLFE{NextHop: "p", Op: label.OpSwap, PushLabels: []label.Label{200}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first install: %v", err)
	}
	if e.Updates() != 0 {
		t.Error("failed publish still counted a snapshot")
	}
	// The live table is unchanged: the packet must miss.
	p := packet.New(1, packet.AddrFrom(10, 0, 0, 1), 64, nil)
	if err := p.Stack.Push(label.Entry{Label: 100, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if res := e.ProcessInline(p); res.Action != swmpls.Drop {
		t.Errorf("table changed despite failed publish: %v", res)
	}
	// The retry succeeds and the entry is live.
	if err := e.InstallILM(100, swmpls.NHLFE{NextHop: "p", Op: label.OpSwap, PushLabels: []label.Label{200}}); err != nil {
		t.Fatal(err)
	}
	q := packet.New(1, packet.AddrFrom(10, 0, 0, 1), 64, nil)
	if err := q.Stack.Push(label.Entry{Label: 100, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if res := e.ProcessInline(q); res.Action != swmpls.Forward {
		t.Errorf("entry not live after retried publish: %v", res)
	}
}

func TestSessionSever(t *testing.T) {
	// Generating severs draws from the rng after everything else, so a
	// seed's flap/corrupt/spike prefix is unchanged by adding them.
	spec := GenSpec{
		Links: [][2]string{{"a", "b"}, {"b", "c"}}, Duration: 2,
		Flaps: 3, Corruptions: 2, DelaySpikes: 2,
	}
	base := Generate(42, spec)
	spec.SessionSevers = 2
	with := Generate(42, spec)
	if len(with.Events) != len(base.Events)+2 {
		t.Fatalf("got %d events, want %d", len(with.Events), len(base.Events)+2)
	}
	severs := 0
	for _, e := range with.Events {
		if e.Kind == SessionSever {
			severs++
			if e.Duration <= 0 {
				t.Errorf("sever with no window: %v", e)
			}
			if got := e.String(); got == "" || e.Kind.String() != "session-sever" {
				t.Errorf("event renders %q, kind %q", got, e.Kind)
			}
		}
	}
	if severs != 2 {
		t.Fatalf("got %d sever events, want 2", severs)
	}

	// Applying a schedule with severs needs the hook...
	n := lineNet(t)
	in := NewInjector(n, nil)
	sched := Schedule{Events: []Event{{At: 0.1, Kind: SessionSever, A: "a", B: "b", Duration: 0.3}}}
	if err := in.Apply(sched); err == nil {
		t.Fatal("Apply accepted sever events without a hook")
	}

	// ...and with one, the hook fires at the scheduled time.
	var got []string
	in = NewInjector(n, nil)
	in.SetSessionSever(func(a, b string, d float64) error {
		got = append(got, a+"-"+b)
		if d != 0.3 {
			t.Errorf("sever duration = %g, want 0.3", d)
		}
		return nil
	})
	if err := in.Apply(sched); err != nil {
		t.Fatal(err)
	}
	n.Sim.RunUntil(0.2)
	if len(got) != 1 || got[0] != "a-b" {
		t.Fatalf("sever hook calls = %v", got)
	}
	if len(in.Log()) != 1 {
		t.Errorf("log = %v", in.Log())
	}
}
