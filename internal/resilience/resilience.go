// Package resilience is the self-healing control plane: it closes the
// feedback loop between the data plane's failure signals and the label
// distribution layer's repair actions. Two detectors feed one healer:
//
//   - keepalive probes per adjacency, with a miss-count threshold, catch
//     hard link failures (Monitor);
//   - per-LSP health tracking over telemetry drop counters catches
//     silent degradation — corruption that the paper's lookup-miss
//     discard kills one hop downstream — that keepalives cannot see
//     (TrackHealth).
//
// The healer is the SessionHealer that BindSessions attaches to a
// signaling speaker. It turns each detection into a
// Speaker.RequestReroute, and the LSP's ingress signals the next path
// generation make-before-break: the old path keeps forwarding until the
// new one maps, so no packet ever sees a half-installed path.
//
// Alongside the loop, the speakers of a distributed node take two
// hardening pieces from here: a Retryer paces session re-establishment
// with exponential backoff and jitter, and a Damper keeps flapping
// links out of protection paths.
//
// Everything runs on an injected Clock (the discrete-event simulator in
// tests and scenarios), so recovery timelines are deterministic: same
// seed, same schedule, same timeline — and no test ever sleeps.
package resilience

import (
	"fmt"
	"strings"
)

// Clock is the injected time source: netsim.Simulator satisfies it
// directly. All delays are in (simulated) seconds.
type Clock interface {
	Now() float64
	Schedule(delay float64, f func())
}

// Event is one entry of a recovery timeline.
type Event struct {
	At   float64
	What string
}

// String renders the entry as one timeline line.
func (e Event) String() string { return fmt.Sprintf("t=%.4fs  %s", e.At, e.What) }

// Timeline collects detection and recovery events in occurrence order.
// The zero value is ready to use. It is not safe for concurrent use —
// like the simulator it rides, it is a single-threaded structure.
type Timeline struct {
	events []Event
}

// Add appends a formatted event at the given time.
func (t *Timeline) Add(at float64, format string, args ...any) {
	t.events = append(t.events, Event{At: at, What: fmt.Sprintf(format, args...)})
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int { return len(t.events) }

// String renders the timeline one event per line — the -chaos report.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
