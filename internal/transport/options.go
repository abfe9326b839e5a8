package transport

import (
	"time"

	"embeddedmpls/internal/telemetry"
)

// config collects everything Dial, Listen and Pair can be configured
// with. The package follows the repository's functional-option
// convention (see DESIGN.md): one unexported config struct, one
// `Option func(*config)` type, `WithX` constructors, and variadic
// constructors that apply them over defaults.
type config struct {
	src           NodeID
	peer          string
	names         []string
	batch         int
	coalesce      int
	sysBatch      int
	flushInterval time.Duration
	readBuffer    int
	metrics       *Metrics
	drop          func(telemetry.Reason)
	now           func() float64
	preAdmit      func(peer string, labelled bool) bool
	malformed     func(peer string)
}

func defaultConfig() config {
	return config{
		batch:         256,
		coalesce:      1,
		sysBatch:      32,
		flushInterval: 200 * time.Microsecond,
		readBuffer:    64 << 10,
	}
}

// Option configures a transport link, receiver or pair.
type Option func(*config)

// WithSource sets the NodeID stamped into every datagram a link sends —
// the index of the sending node in the topology's node table.
func WithSource(id NodeID) Option {
	return func(c *config) { c.src = id }
}

// WithPeer fixes the remote node name of a single-peer receiver: every
// datagram arriving on the socket is attributed to this neighbour,
// regardless of the NodeID it carries. The per-link sockets built by
// Pair use it.
func WithPeer(name string) Option {
	return func(c *config) { c.peer = name }
}

// WithNames installs the node table of a shared receive socket: the
// datagram's NodeID indexes it to recover the sending node's name. Out
// of range ids resolve to an empty name (and WithPeer, if set, wins).
func WithNames(names []string) Option {
	return func(c *config) { c.names = names }
}

// WithBatch caps the receiver's batch: the sink runs when the socket
// has no more datagrams to read or when this many decoded packets are
// pending, whichever comes first. Values below one are clamped to one.
func WithBatch(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.batch = n
	}
}

// WithCoalesce sets how many packets a link packs into one coalesced
// frame datagram (see frame.go): n <= 1 disables coalescing (one
// datagram per packet, the legacy wire behaviour), larger values
// amortise per-datagram and per-syscall cost across n packets at the
// price of up to one flush interval of added latency on the Send path.
// Clamped to [1, MaxFramePackets].
func WithCoalesce(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		if n > MaxFramePackets {
			n = MaxFramePackets
		}
		c.coalesce = n
	}
}

// WithSysBatch sets how many datagrams one send or receive syscall
// moves (sendmmsg/recvmmsg). On platforms without the batched syscalls
// it only sizes the receiver's buffer ring; datagrams then cost one
// syscall each. Clamped to [1, 128].
func WithSysBatch(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		if n > 128 {
			n = 128
		}
		c.sysBatch = n
	}
}

// WithFlushInterval bounds how long a link's open coalesced frame waits
// for more Send calls before it is sealed and written. SendBatch never
// leaves a frame open, and receivers flush when the socket drains, so
// neither waits on it.
func WithFlushInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.flushInterval = d
		}
	}
}

// WithReadBuffer sets the receive socket's kernel buffer (SO_RCVBUF)
// in bytes: the headroom for bursts arriving faster than the read loop
// drains them.
func WithReadBuffer(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.readBuffer = n
		}
	}
}

// WithMetrics attaches shared per-link transport counters; several
// links and receivers may share one Metrics to aggregate a node's
// whole transport plane.
func WithMetrics(m *Metrics) Option {
	return func(c *config) { c.metrics = m }
}

// WithDropCounters attaches the unified drop taxonomy: datagrams that
// fail to decode are counted under telemetry.ReasonWireDecode, and
// packets a link loses (down, closed, fault-eaten) under the reason
// the loss maps to.
func WithDropCounters(d *telemetry.DropCounters) Option {
	return func(c *config) {
		if d == nil {
			c.drop = nil
			return
		}
		c.drop = d.Inc
	}
}

// WithDropFunc attaches drop accounting through an indirection instead
// of a concrete counter set — router.Network uses it so a telemetry
// sink attached after the sockets exist still sees transport drops.
func WithDropFunc(fn func(telemetry.Reason)) Option {
	return func(c *config) { c.drop = fn }
}

// WithPreAdmit installs a pre-decode admission hook on a receiver: it
// runs with only the peeked header bits (attributed peer, labelled
// flag) before any decode work, and a false return discards the
// datagram silently — the hook owns the drop accounting. The ingress
// guard's quarantine breaker uses it to stop a garbage flood from
// burning decode CPU.
func WithPreAdmit(fn func(peer string, labelled bool) bool) Option {
	return func(c *config) { c.preAdmit = fn }
}

// WithMalformedFunc reports each wire-decode failure with the peer it
// was attributed to (via WithPeer, or the datagram's claimed NodeID
// when the header survives enough to carry one; "" when
// unattributable). The ingress guard's quarantine breaker feeds on it.
func WithMalformedFunc(fn func(peer string)) Option {
	return func(c *config) { c.malformed = fn }
}

// WithClock supplies the time source fault hooks are evaluated
// against, in seconds — under the real-time network pump this is the
// simulator's clock, so seeded fault windows line up with scheduled
// injections. Defaults to wall time since the link was created.
func WithClock(now func() float64) Option {
	return func(c *config) { c.now = now }
}
