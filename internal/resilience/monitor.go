package resilience

import (
	"fmt"

	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/telemetry"
)

// ProbeFlowID marks keepalive probe packets; the routers' control sink
// claims them before delivery statistics, so liveness traffic never
// pollutes flow accounting.
const ProbeFlowID uint16 = 0xfdfa

// MonitorConfig parameterises link liveness probing.
type MonitorConfig struct {
	// Interval between probes per watched adjacency (seconds). <=0: 0.01.
	Interval float64
	// MissThreshold is the number of consecutive unanswered probes that
	// declares the adjacency down. <=0: 3.
	MissThreshold int
	// Until, when >0, stops probe scheduling at that simulated time so a
	// bounded scenario's event queue can drain. 0 probes forever.
	Until float64
	// Events and Timeline are optional observation sinks.
	Events   *telemetry.EventCounters
	Timeline *Timeline
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Interval <= 0 {
		c.Interval = 0.01
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	return c
}

// Monitor sends keepalive probes over watched adjacencies and declares
// them down after MissThreshold consecutive misses — the failure
// detector of the self-healing loop. Probes are real packets: they ride
// the same links as traffic, so whatever kills traffic kills probes.
type Monitor struct {
	clock Clock
	net   *router.Network
	cfg   MonitorConfig

	adjacencies map[adjKey]*adjacency
	ctrlAddrs   map[string]packet.Addr // router -> control address
	byAddr      map[packet.Addr]string

	// OnDown fires when an adjacency is declared down; OnUp when probes
	// flow again over a previously declared-down adjacency. Both are
	// called from probe-tick events on the injected clock.
	OnDown func(a, b string)
	OnUp   func(a, b string)
}

type adjKey struct{ a, b string }

type adjacency struct {
	a, b    string
	pending int // probes sent since the last arrival
	down    bool
}

// NewMonitor builds a liveness monitor over the network.
func NewMonitor(net *router.Network, clock Clock, cfg MonitorConfig) *Monitor {
	return &Monitor{
		clock:       clock,
		net:         net,
		cfg:         cfg.withDefaults(),
		adjacencies: make(map[adjKey]*adjacency),
		ctrlAddrs:   make(map[string]packet.Addr),
		byAddr:      make(map[packet.Addr]string),
	}
}

// Watch starts probing the directed a->b adjacency: probes injected on
// a's link toward b, claimed by b's control sink. Watch both directions
// to cover a duplex connection. Watching must precede Start-independent
// use; probing begins on the next Start tick, or immediately if the
// monitor is already running.
func (m *Monitor) Watch(a, b string) error {
	ra, ok := m.net.Routers[a]
	if !ok {
		return fmt.Errorf("resilience: unknown node %q", a)
	}
	if _, ok := ra.Link(b); !ok {
		return fmt.Errorf("resilience: no link %s->%s", a, b)
	}
	if _, ok := m.net.Routers[b]; !ok {
		return fmt.Errorf("resilience: unknown node %q", b)
	}
	key := adjKey{a, b}
	if _, dup := m.adjacencies[key]; dup {
		return nil
	}
	m.ctrl(a)
	m.ctrl(b)
	adj := &adjacency{a: a, b: b}
	m.adjacencies[key] = adj
	m.clock.Schedule(0, func() { m.tick(adj) })
	return nil
}

// WatchBoth watches both directions of the a-b connection.
func (m *Monitor) WatchBoth(a, b string) error {
	if err := m.Watch(a, b); err != nil {
		return err
	}
	return m.Watch(b, a)
}

// Down reports whether the directed a->b adjacency is currently
// declared down.
func (m *Monitor) Down(a, b string) bool {
	adj, ok := m.adjacencies[adjKey{a, b}]
	return ok && adj.down
}

// ctrl allocates (once) the control address for a router, registers it
// as local, and installs the probe-claiming control sink.
func (m *Monitor) ctrl(name string) packet.Addr {
	if addr, ok := m.ctrlAddrs[name]; ok {
		return addr
	}
	i := len(m.ctrlAddrs) + 1
	addr := packet.AddrFrom(240, 0, byte(i>>8), byte(i))
	m.ctrlAddrs[name] = addr
	m.byAddr[addr] = name
	r := m.net.Router(name)
	r.AddLocal(addr)
	r.AddControlSink(func(p *packet.Packet) bool {
		if p.Header.FlowID != ProbeFlowID {
			return false
		}
		m.probeArrived(p)
		return true
	})
	return addr
}

// tick is one probe interval for an adjacency: account the previous
// probe's fate, declare transitions, send the next probe, reschedule.
func (m *Monitor) tick(adj *adjacency) {
	if m.cfg.Until > 0 && m.clock.Now() >= m.cfg.Until {
		return
	}
	if adj.pending > 0 {
		// The previous probe never arrived.
		if m.cfg.Events != nil {
			m.cfg.Events.Inc(telemetry.EventKeepaliveMiss)
		}
		if adj.pending >= m.cfg.MissThreshold && !adj.down {
			adj.down = true
			if m.cfg.Events != nil {
				m.cfg.Events.Inc(telemetry.EventLinkFlap)
			}
			if m.cfg.Timeline != nil {
				m.cfg.Timeline.Add(m.clock.Now(), "monitor: %s->%s down (%d probes missed)",
					adj.a, adj.b, adj.pending)
			}
			if m.OnDown != nil {
				m.OnDown(adj.a, adj.b)
			}
		}
	}
	m.sendProbe(adj)
	m.clock.Schedule(m.cfg.Interval, func() { m.tick(adj) })
}

func (m *Monitor) sendProbe(adj *adjacency) {
	l, ok := m.net.Router(adj.a).Link(adj.b)
	if !ok {
		return
	}
	p := packet.New(m.ctrlAddrs[adj.a], m.ctrlAddrs[adj.b], 8, nil)
	p.Header.FlowID = ProbeFlowID
	p.SentAt = m.clock.Now()
	adj.pending++
	l.Send(p)
}

// probeArrived resets the miss counter of the probed adjacency and
// declares recovery if it had been down.
func (m *Monitor) probeArrived(p *packet.Packet) {
	from, ok := m.byAddr[p.Header.Src]
	if !ok {
		return
	}
	to, ok := m.byAddr[p.Header.Dst]
	if !ok {
		return
	}
	adj, ok := m.adjacencies[adjKey{from, to}]
	if !ok {
		return
	}
	adj.pending = 0
	if adj.down {
		adj.down = false
		if m.cfg.Timeline != nil {
			m.cfg.Timeline.Add(m.clock.Now(), "monitor: %s->%s up (probe arrived)", adj.a, adj.b)
		}
		if m.OnUp != nil {
			m.OnUp(adj.a, adj.b)
		}
	}
}
