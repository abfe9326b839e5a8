package signaling

import (
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/telemetry"
)

// RestartPolicy paces session re-establishment after a peer is lost.
// Do runs op immediately and again with (typically exponential) backoff
// until op returns nil or the policy gives up, then calls onDone with
// the final error. resilience.Retryer satisfies it structurally; the
// speaker depends on the shape only, keeping the package dependency
// pointing resilience -> signaling as everywhere else.
type RestartPolicy interface {
	Do(name string, op func() error, onDone func(error))
}

// LabelGuard observes this node's label advertisements so an ingress
// admission filter can pin which labels each neighbour is allowed to
// send: Advertise(peer, l) after telling peer to send label l here,
// Withdraw when that binding is torn down. guard.Guard satisfies it.
type LabelGuard interface {
	Advertise(peer string, l label.Label)
	Withdraw(peer string, l label.Label)
}

// Speaker timing, in seconds on the speaker's clock. Sessions run the
// default Timers.
const (
	// drainDelay is the make-before-break drain: how long a superseded
	// path generation keeps forwarding before its release is sent.
	drainDelay = 0.02
	// setupTimeout is how long the ingress waits for a mapping before
	// retransmitting its request.
	setupTimeout = 0.25
	// retryMax and retryBackoff are the retry budget and the linear
	// backoff step for establishment and reroute attempts.
	retryMax     = 5
	retryBackoff = 0.05
	// avoidHold is how long a reroute remembers links that errors and
	// withdraws named as faulty: remembered links stay excluded from
	// CSPF across consecutive reroutes of the same LSP, so an ingress
	// bouncing between two broken paths accumulates the evidence instead
	// of oscillating.
	avoidHold = 2.0
)

type config struct {
	until     float64
	maintIvl  float64
	adaptLoad float64
	restart   RestartPolicy
	guard     LabelGuard
	events    *telemetry.EventCounters
}

// Option configures a Speaker.
type Option func(*config)

// WithUntil stops session ticking at the given clock time so a bounded
// scenario's event queue can drain. 0 ticks forever (stop with Stop).
func WithUntil(t float64) Option {
	return func(c *config) { c.until = t }
}

// WithEvents attaches an event counter sink for session transitions,
// label message receipts, protection switches and retries.
func WithEvents(e *telemetry.EventCounters) Option {
	return func(c *config) { c.events = e }
}

// WithRestartPolicy routes session re-establishment through p: when a
// session that was operational goes down, the periodic hello is muted
// and p paces rediscovery probes instead, so a dead peer costs a
// decaying trickle rather than a tight hello loop. If p gives up, the
// legacy hello cadence resumes. Without a policy, sessions redial
// immediately every hello tick (the pre-hardening behaviour).
func WithRestartPolicy(p RestartPolicy) Option {
	return func(c *config) { c.restart = p }
}

// WithGuard attaches a label-advertisement observer (the ingress
// admission guard) so spoof filtering tracks the live label state.
func WithGuard(g LabelGuard) Option {
	return func(c *config) { c.guard = g }
}

// WithMaintenance enables a periodic background sweep every ivl
// seconds: failed ingress LSPs are re-signalled (so a node that ran
// out of retry budget during a partition recovers once the topology
// heals) and adaptive keepalive recomputes. 0 (the default) disables
// the sweep — pure-simulation scenarios need the event queue to drain.
func WithMaintenance(ivl float64) Option {
	return func(c *config) {
		if ivl > 0 {
			c.maintIvl = ivl
		}
	}
}

// WithAdaptiveKeepalive stretches operational keepalive intervals when
// the speaker's receive rate exceeds loadPPS messages/second: at 2x
// the threshold keepalives are paced 2x apart, clamped per session so
// the stretched interval never exceeds half the hold timer. 0 (the
// default) disables adaptation. Requires WithMaintenance (the sweep is
// where the rate is sampled).
func WithAdaptiveKeepalive(loadPPS float64) Option {
	return func(c *config) {
		if loadPPS > 0 {
			c.adaptLoad = loadPPS
		}
	}
}
