package resilience

import (
	"strings"
	"testing"

	"embeddedmpls/internal/faults"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
)

// chaosResult captures one chaos run for determinism comparison.
type chaosResult struct {
	timeline  string
	events    [telemetry.NumEvents]uint64
	delivered int
	resumed   int // packets delivered after the recovery deadline
	reordered bool
}

// runChaos is the self-healing loop `make chaos` runs, under a seeded
// fault schedule: a speaker on every router, CBR traffic over the
// signalled a-b-d LSP, the a-b link downed mid-traffic, keepalive misses
// detecting it, the session healer at the ingress requesting a reroute,
// the speaker switching to a-c-d and delivery resuming.
func runChaos(t *testing.T, seed int64) chaosResult {
	t.Helper()
	n := diamondNet(t)
	dst := packet.AddrFrom(10, 0, 0, 9)

	var ev telemetry.EventCounters
	tl := &Timeline{}

	speakers, err := signaling.Deploy(n, signaling.WithEvents(&ev), signaling.WithUntil(0.8))
	if err != nil {
		t.Fatal(err)
	}
	sh := BindSessions(speakers["a"], n.Sim, tl)
	if err := speakers["a"].Setup(ldp.SetupRequest{
		ID: "l", FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	sh.Protect("l", []string{"a", "b", "d"})

	mon := NewMonitor(n, n.Sim, MonitorConfig{
		Interval: 0.005, MissThreshold: 3, Until: 0.8, Events: &ev, Timeline: tl,
	})
	mon.OnDown = sh.LinkDown
	mon.OnUp = sh.LinkUp
	if err := mon.WatchBoth("a", "b"); err != nil {
		t.Fatal(err)
	}

	inj := faults.NewInjector(n, &ev)
	if err := inj.Apply(faults.Schedule{Seed: seed, Events: []faults.Event{
		{At: 0.15, Kind: faults.LinkDown, A: "a", B: "b"},
		{At: 0.50, Kind: faults.LinkUp, A: "a", B: "b"},
	}}); err != nil {
		t.Fatal(err)
	}

	res := chaosResult{}
	var lastSeq uint64
	haveSeq := false
	n.Router("d").OnDeliver = func(p *packet.Packet) {
		res.delivered++
		if n.Sim.Now() > 0.25 {
			res.resumed++
		}
		if haveSeq && p.SeqNo <= lastSeq {
			res.reordered = true
		}
		lastSeq, haveSeq = p.SeqNo, true
	}

	for i := 0; i < 160; i++ {
		i := i
		n.Sim.Schedule(float64(i)*0.005, func() {
			p := packet.New(1, dst, 64, make([]byte, 64))
			p.Header.FlowID = 7
			p.SeqNo = uint64(i + 1)
			p.SentAt = n.Sim.Now()
			n.Router("a").Inject(p)
		})
	}
	n.Sim.Run()

	res.timeline = tl.String()
	res.events = ev.Snapshot()
	return res
}

func TestChaosRecovery(t *testing.T) {
	r := runChaos(t, 42)

	if got := r.events[telemetry.EventProtectionSwitch]; got != 1 {
		t.Errorf("protection_switch = %d, want exactly 1\ntimeline:\n%s", got, r.timeline)
	}
	// One flap counted by the injector, one per direction by the monitor.
	if got := r.events[telemetry.EventLinkFlap]; got != 3 {
		t.Errorf("link_flap = %d, want 3", got)
	}
	if got := r.events[telemetry.EventKeepaliveMiss]; got < 6 {
		t.Errorf("keepalive_miss = %d, want >= 6", got)
	}
	if got := r.events[telemetry.EventRetryExhausted]; got != 0 {
		t.Errorf("retry_exhausted = %d, want 0", got)
	}

	// Delivery resumed on the backup path after detection.
	if r.resumed == 0 {
		t.Errorf("no packets delivered after recovery\ntimeline:\n%s", r.timeline)
	}
	if r.reordered {
		t.Error("intra-flow reordering across the protection switch")
	}
	// Loss is bounded to the blackout window: 160 packets sent, the
	// first one or two before the LSP maps at ~6 ms, and the link was
	// down-but-undetected for ~15 ms (3-4 packets).
	if r.delivered < 160-8 {
		t.Errorf("delivered %d of 160 — loss beyond the detection window", r.delivered)
	}
	if r.delivered == 160 {
		t.Error("no loss at all — the fault never bit")
	}

	// The timeline tells the story in order: detection, the healer's
	// request, then the ingress establishing the backup path.
	down := strings.Index(r.timeline, "monitor: a->b down")
	req := strings.Index(r.timeline, `healer: a: requesting reroute of "l"`)
	sw := strings.Index(r.timeline, `LSP "l" established via [a c d]`)
	if down < 0 || req < down || sw < req {
		t.Errorf("timeline missing detection->request->switch sequence:\n%s", r.timeline)
	}
}

// TestChaosDeterministic is the acceptance determinism bar: same seed,
// same recovery timeline, byte for byte.
func TestChaosDeterministic(t *testing.T) {
	a := runChaos(t, 42)
	b := runChaos(t, 42)
	if a.timeline != b.timeline {
		t.Errorf("same seed produced different timelines:\n--- run 1\n%s\n--- run 2\n%s", a.timeline, b.timeline)
	}
	if a.events != b.events {
		t.Errorf("same seed produced different event counts: %v vs %v", a.events, b.events)
	}
	if a.delivered != b.delivered || a.resumed != b.resumed {
		t.Errorf("same seed produced different delivery: %d/%d vs %d/%d",
			a.delivered, a.resumed, b.delivered, b.resumed)
	}
}
