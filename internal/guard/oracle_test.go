package guard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// admitter is everything the lock-free guard and the mutex reference
// have in common — the whole public verdict surface.
type admitter interface {
	Admit(p *packet.Packet, peer string) bool
	PreAdmit(peer string, labelled bool) bool
	Malformed(peer string)
	Advertise(peer string, l label.Label)
	Withdraw(peer string, l label.Label)
	SetDefaultPolicy(p Policy)
	SetLinkPolicy(peer string, p Policy)
	DefaultPolicy() Policy
	Quarantined(peer string) bool
	Advertised(peer string, l label.Label) bool
	Drops() *telemetry.DropCounters
}

// pair is the guard under test and its reference, built from the same
// options on the same clock, each with its own event counters.
type pair struct {
	clk    *manualClock
	got    admitter
	want   admitter
	gotEv  telemetry.EventCounters
	wantEv telemetry.EventCounters
	step   int
}

func newPair(opts ...Option) *pair {
	pr := &pair{clk: &manualClock{}}
	opts = append([]Option{WithClock(pr.clk.now), WithControlFlows(ctrlFlow)}, opts...)
	pr.got = New(append(opts, WithEvents(&pr.gotEv))...)
	pr.want = newRef(append(opts, WithEvents(&pr.wantEv))...)
	return pr
}

// verdict runs one boolean command on both sides and demands the same
// answer, then the same drop counters and the same trip/clear events.
func (pr *pair) verdict(t testing.TB, what string, f func(admitter) bool) bool {
	t.Helper()
	pr.step++
	got, want := f(pr.got), f(pr.want)
	if got != want {
		t.Fatalf("step %d %s: guard said %v, reference said %v", pr.step, what, got, want)
	}
	pr.agree(t, what)
	return got
}

func (pr *pair) do(t testing.TB, what string, f func(admitter)) {
	t.Helper()
	pr.verdict(t, what, func(a admitter) bool { f(a); return true })
}

func (pr *pair) agree(t testing.TB, what string) {
	t.Helper()
	if got, want := pr.got.Drops().Snapshot(), pr.want.Drops().Snapshot(); got != want {
		t.Fatalf("step %d %s: drop counters %v, reference %v", pr.step, what, got, want)
	}
	for _, ev := range []telemetry.Event{telemetry.EventQuarantineTrip, telemetry.EventQuarantineClear} {
		if got, want := pr.gotEv.Get(ev), pr.wantEv.Get(ev); got != want {
			t.Fatalf("step %d %s: event %v fired %d times, reference %d", pr.step, what, ev, got, want)
		}
	}
}

// oraclePolicy draws a policy whose knobs are small enough that a few
// hundred commands run every check into both of its outcomes: buckets
// empty, breakers trip and expire.
func oraclePolicy(r *rand.Rand) Policy {
	var p Policy
	if r.Intn(4) == 0 {
		return p // inactive: admit everything, remember nothing
	}
	p.SpoofFilter = r.Intn(3) != 0
	if r.Intn(2) == 0 {
		p.MinTTL = uint8(1 + r.Intn(4))
	}
	if r.Intn(3) == 0 {
		p.RatePPS = float64(1 + r.Intn(20))
		p.Burst = r.Intn(12) // 0 exercises the default
	}
	if r.Intn(2) == 0 {
		p.QuarantineThreshold = 1 + r.Intn(4)
		p.QuarantineWindow = float64(r.Intn(3)) // 0 exercises the default
		p.QuarantineHold = float64(r.Intn(4))
	}
	return p
}

// TestGuardMatchesReference drives the lock-free guard and the mutex
// implementation it replaced with one seeded command stream — every
// public method, labelled and unlabelled, control and data, policy
// retunes, clock advances — and demands identical verdicts, drop
// counters and trip/clear events after every single command.
func TestGuardMatchesReference(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	labels := []label.Label{16, 17, 100, 4095, 4096, 70000, label.MaxLabel}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			pr := newPair(WithDefaultPolicy(oraclePolicy(r)), WithLinkPolicy("b", oraclePolicy(r)))
			peer := func() string { return peers[r.Intn(len(peers))] }
			lbl := func() label.Label { return labels[r.Intn(len(labels))] }
			for i := 0; i < 4000; i++ {
				switch c := r.Intn(100); {
				case c < 40:
					var p *packet.Packet
					var what string
					if r.Intn(3) > 0 {
						l, cos, ttl := lbl(), label.CoS(r.Intn(8)), uint8(r.Intn(6))
						p, what = labelled(t, l, cos, ttl), fmt.Sprintf("labelled %d cos %d ttl %d", l, cos, ttl)
					} else {
						flow := uint16(7)
						if r.Intn(2) == 0 {
							flow = ctrlFlow
						}
						p = plain(flow, uint8(r.Intn(6)))
						what = fmt.Sprintf("plain flow %#x ttl %d", flow, p.Header.TTL)
					}
					from := peer()
					pr.verdict(t, "Admit "+what+" from "+from, func(a admitter) bool { return a.Admit(p, from) })
				case c < 50:
					from, lab := peer(), r.Intn(2) == 0
					pr.verdict(t, "PreAdmit "+from, func(a admitter) bool { return a.PreAdmit(from, lab) })
				case c < 62:
					to, l := peer(), lbl()
					pr.do(t, "Advertise", func(a admitter) { a.Advertise(to, l) })
				case c < 70:
					to, l := peer(), lbl()
					pr.do(t, "Withdraw", func(a admitter) { a.Withdraw(to, l) })
				case c < 80:
					from := peer()
					if r.Intn(8) == 0 {
						from = "" // unattributable
					}
					pr.do(t, "Malformed "+from, func(a admitter) { a.Malformed(from) })
				case c < 83:
					to, pol := peer(), oraclePolicy(r)
					pr.do(t, "SetLinkPolicy "+to, func(a admitter) { a.SetLinkPolicy(to, pol) })
				case c < 85:
					pol := oraclePolicy(r)
					pr.do(t, "SetDefaultPolicy", func(a admitter) { a.SetDefaultPolicy(pol) })
					if got, want := pr.got.DefaultPolicy(), pr.want.DefaultPolicy(); got != want {
						t.Fatalf("DefaultPolicy %+v, reference %+v", got, want)
					}
				case c < 90:
					who := peer()
					pr.verdict(t, "Quarantined "+who, func(a admitter) bool { return a.Quarantined(who) })
				case c < 94:
					who, l := peer(), lbl()
					pr.verdict(t, "Advertised", func(a admitter) bool { return a.Advertised(who, l) })
				default:
					pr.clk.advance([]float64{0.01, 0.1, 0.5, 1, 3}[r.Intn(5)])
				}
			}
			if pr.got.Drops().Total() == 0 {
				t.Error("the stream dropped nothing: the oracle compared no rejection")
			}
		})
	}
}

// TestLabelSetBoundaries pins the paged bitset at page and word edges
// and at the ends of the label space.
func TestLabelSetBoundaries(t *testing.T) {
	var s labelSet
	edges := []label.Label{0, 1, 63, 64, pageMask, pageMask + 1, label.MaxLabel - 1, label.MaxLabel}
	for _, l := range edges {
		if s.has(l) {
			t.Fatalf("empty set has %d", l)
		}
		s.set(l, false) // removing from an unallocated page is a no-op
		s.set(l, true)
		s.set(l, true)
	}
	for _, l := range edges {
		if !s.has(l) {
			t.Errorf("set lost %d", l)
		}
	}
	if s.has(2) || s.has(65) || s.has(pageMask+2) {
		t.Error("a neighbouring bit leaked")
	}
	s.set(label.MaxLabel+1, true) // not a label: ignored, not an index panic
	if s.has(label.MaxLabel + 1) {
		t.Error("an out-of-range label is a member")
	}
	for _, l := range edges {
		s.set(l, false)
		if s.has(l) {
			t.Errorf("%d survived remove", l)
		}
	}
}

// atomicClock is a manual clock several goroutines may read and move.
type atomicClock struct{ bits atomic.Uint64 }

func (c *atomicClock) now() float64 { return math.Float64frombits(c.bits.Load()) }
func (c *atomicClock) advance(dt float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+dt)) {
			return
		}
	}
}

// TestConcurrentAdmission is the -race test of the lock-free paths: two
// goroutines admit (as two shard readers do) while others advertise and
// withdraw, retune the policy, trip and expire the breaker and publish
// new peers. What must hold whatever the interleaving: a label that was
// never advertised is never admitted, one that stays advertised is only
// ever refused by the breaker, and every refusal is counted once.
func TestConcurrentAdmission(t *testing.T) {
	clk := &atomicClock{}
	var ev telemetry.EventCounters
	strict := Policy{SpoofFilter: true, MinTTL: 2, QuarantineThreshold: 3, QuarantineWindow: 1, QuarantineHold: 0.5}
	limited := strict
	limited.RatePPS, limited.Burst = 1e9, 1<<20
	g := New(WithClock(clk.now), WithEvents(&ev), WithControlFlows(ctrlFlow), WithDefaultPolicy(strict))
	const stable, churned, never = label.Label(100), label.Label(101), label.Label(102)
	g.Advertise("a", stable)

	done := make(chan struct{})
	var writers, admitters sync.WaitGroup
	background := func(f func(i int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					f(i)
				}
			}
		}()
	}
	background(func(i int) {
		if i%2 == 0 {
			g.Advertise("a", churned)
		} else {
			g.Withdraw("a", churned)
		}
	})
	background(func(i int) {
		if i%2 == 0 {
			g.SetDefaultPolicy(limited)
		} else {
			g.SetDefaultPolicy(strict)
		}
	})
	background(func(i int) {
		// A burst trips the breaker, then the clock runs past the hold and
		// stays there a while, so the admitters see open, expiry and clear.
		if i%16 == 0 {
			for k := 0; k < strict.QuarantineThreshold; k++ {
				g.Malformed("a")
			}
		}
		clk.advance(0.1)
		runtime.Gosched()
	})
	background(func(i int) {
		// Fresh peers are published while the admitters read the table.
		g.Advertise(fmt.Sprintf("peer%d", i%64), stable)
	})

	// Admission only reads a packet, so the admitters share these.
	pStable := labelled(t, stable, 0, 64)
	pChurned := labelled(t, churned, 0, 64)
	pNever := labelled(t, never, 0, 64)
	pCtrl := plain(ctrlFlow, 1)
	var admitted, refused atomic.Uint64
	for w := 0; w < 2; w++ {
		admitters.Add(1)
		go func() {
			defer admitters.Done()
			count := func(ok bool) bool {
				if ok {
					admitted.Add(1)
				} else {
					refused.Add(1)
				}
				return ok
			}
			// Run until the breaker has been seen through a whole cycle, and
			// no shorter than it takes the writers to get going.
			deadline := time.Now().Add(20 * time.Second)
			for i := 0; i < 5000 || ev.Get(telemetry.EventQuarantineClear) < 3; i++ {
				if i%256 == 0 {
					// Two spinning admitters own both cores of a small box;
					// yielding lets the writers (and the neighbouring test
					// binaries go test runs in parallel) have them.
					runtime.Gosched()
					if time.Now().After(deadline) {
						t.Error("the breaker did not trip and clear three times in 20 s")
						return
					}
				}
				before := g.Drops().Get(telemetry.ReasonQuarantine)
				if !count(g.Admit(pStable, "a")) && g.Drops().Get(telemetry.ReasonQuarantine) == before {
					t.Error("an advertised label was refused and the breaker was not the reason")
					return
				}
				count(g.Admit(pChurned, "a"))
				if count(g.Admit(pNever, "a")) {
					t.Error("a label never advertised was admitted")
					return
				}
				if !count(g.Admit(pCtrl, "a")) {
					t.Error("a control packet was refused")
					return
				}
				if !g.PreAdmit("a", true) {
					refused.Add(1)
				}
				g.Quarantined("a")
			}
		}()
	}
	admitters.Wait()
	close(done)
	writers.Wait()

	if got := g.Drops().Total(); got != refused.Load() {
		t.Errorf("%d refusals, %d drops counted", refused.Load(), got)
	}
	if ev.Get(telemetry.EventQuarantineTrip) == 0 {
		t.Error("the breaker never tripped: the test did not exercise quarantine")
	}
	trips, clears := ev.Get(telemetry.EventQuarantineTrip), ev.Get(telemetry.EventQuarantineClear)
	if clears == 0 || clears > trips {
		t.Errorf("%d clears for %d trips, want at least one and never more than trips", clears, trips)
	}
	t.Logf("admitted %d refused %d trips %d clears %d", admitted.Load(), refused.Load(),
		ev.Get(telemetry.EventQuarantineTrip), ev.Get(telemetry.EventQuarantineClear))
}
