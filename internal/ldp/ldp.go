// Package ldp holds the label distribution request types: the FEC an
// LSP carries and the SetupRequest that asks for one, along an explicit
// route (in the style of CR-LDP / RSVP-TE, which the paper cites as the
// label distribution protocols that make MPLS useful for traffic
// engineering and QoS). The state machine that distributes the labels —
// sessions, downstream-on-demand allocation, hierarchical tunnels,
// make-before-break and teardown — is signaling.Speaker, and it is the
// only one: in-process networks and distributed nodes run the same.
package ldp

import (
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
)

// FEC is the forwarding equivalence class an LSP carries: a destination
// prefix. The embedded hardware exact-matches packet identifiers, so for
// hardware routers PrefixLen must be 32.
type FEC struct {
	Dst       packet.Addr
	PrefixLen int
}

// SetupRequest describes an LSP to establish.
type SetupRequest struct {
	ID   string
	FEC  FEC
	Path []string
	// Bandwidth to reserve on each hop (0 = none).
	Bandwidth float64
	// PHP enables penultimate hop popping.
	PHP bool
	// CoS is stamped on labels pushed at the ingress, selecting the
	// scheduling class of the LSP's packets through the core.
	CoS label.CoS
	// Tunnel asks for a hierarchical LSP (the paper's Figure 3): it
	// carries no FEC, and another LSP may use its head->tail pair as one
	// hop of its own path. That hop is a label push at the head and a
	// pop-and-reexamine at the tail; the inner label crosses unchanged.
	Tunnel bool
}
