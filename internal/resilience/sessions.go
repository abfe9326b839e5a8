package resilience

import (
	"embeddedmpls/internal/signaling"
)

// SessionHealer is the repair side of the self-healing loop. It
// reprograms no router itself: it turns a locally detected failure into
// a signaling Reroute request that travels hop-by-hop to the LSP's
// ingress, which may live in another process, and the ingress switches
// make-before-break. Wire LinkDown/LinkUp to a Monitor's callbacks and
// Degraded to a TrackHealth callback.
type SessionHealer struct {
	sp       *signaling.Speaker
	clock    Clock
	timeline *Timeline

	paths map[string][]string // protected LSP -> last known path
	order []string            // protection order, for determinism
}

// BindSessions glues a signaling speaker into the resilience plane:
// session transitions land on the timeline, established paths are
// tracked for protection, and the returned SessionHealer converts
// detected link failures into protection-switch requests. The
// speaker's observation hooks are chained, not replaced.
func BindSessions(sp *signaling.Speaker, clock Clock, tl *Timeline) *SessionHealer {
	sh := &SessionHealer{
		sp:       sp,
		clock:    clock,
		timeline: tl,
		paths:    make(map[string][]string),
	}
	prevUp, prevDown, prevEst := sp.OnSessionUp, sp.OnSessionDown, sp.OnEstablished
	sp.OnSessionUp = func(peer string) {
		if tl != nil {
			tl.Add(clock.Now(), "signaling: %s: session to %s up", sp.Name(), peer)
		}
		if prevUp != nil {
			prevUp(peer)
		}
	}
	sp.OnSessionDown = func(peer string) {
		if tl != nil {
			tl.Add(clock.Now(), "signaling: %s: session to %s down", sp.Name(), peer)
		}
		if prevDown != nil {
			prevDown(peer)
		}
	}
	sp.OnEstablished = func(id string, path []string) {
		if _, tracked := sh.paths[id]; tracked {
			sh.paths[id] = append([]string(nil), path...)
		}
		if tl != nil {
			tl.Add(clock.Now(), "signaling: %s: LSP %q established via %v", sp.Name(), id, path)
		}
		if prevEst != nil {
			prevEst(id, path)
		}
	}
	return sh
}

// Protect registers an LSP (by base id) for protection switching. path
// is its current route; at the ingress it is refreshed automatically on
// every establishment.
func (sh *SessionHealer) Protect(id string, path []string) {
	if _, dup := sh.paths[id]; dup {
		return
	}
	sh.paths[id] = append([]string(nil), path...)
	sh.order = append(sh.order, id)
	if sh.timeline != nil {
		sh.timeline.Add(sh.clock.Now(), "healer: %s: protecting %q (path %v)", sh.sp.Name(), id, path)
	}
}

// LinkDown requests a protection switch for every protected LSP whose
// last known path crosses the failed connection. Wire to Monitor.OnDown.
func (sh *SessionHealer) LinkDown(a, b string) {
	for _, id := range sh.order {
		path := sh.paths[id]
		if !pathUses(path, a, b) {
			continue
		}
		if sh.timeline != nil {
			sh.timeline.Add(sh.clock.Now(), "healer: %s: requesting reroute of %q around %s-%s",
				sh.sp.Name(), id, a, b)
		}
		// Best effort: the LSP may already be gone, or the route to its
		// ingress may itself be partitioned — the withdraw cascade
		// covers that case.
		_ = sh.sp.RequestReroute(id, a, b)
	}
}

// Degraded requests a protection switch for a protected LSP whose data
// path is dropping packets even though every session is healthy (a
// corruption window, a grey failure): the request avoids the first link
// of the last known path, pushing the LSP onto a disjoint alternative.
func (sh *SessionHealer) Degraded(id string) {
	path, ok := sh.paths[id]
	if !ok || len(path) < 2 {
		return
	}
	if sh.timeline != nil {
		sh.timeline.Add(sh.clock.Now(), "healer: %s: %q degraded, requesting route off %s-%s",
			sh.sp.Name(), id, path[0], path[1])
	}
	_ = sh.sp.RequestReroute(id, path[0], path[1])
}

// LinkUp records a link recovery on the timeline. The signaling plane
// re-establishes sessions and resignals on its own; nothing to force.
func (sh *SessionHealer) LinkUp(a, b string) {
	if sh.timeline != nil {
		sh.timeline.Add(sh.clock.Now(), "healer: %s: link %s-%s recovered", sh.sp.Name(), a, b)
	}
}

// pathUses reports whether the path crosses the a-b connection in
// either direction.
func pathUses(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}
