package lsm

import "embeddedmpls/internal/swmpls"

// Drop maps an LSM discard onto the software forwarder's drop taxonomy
// — the mapping the embedded device applies: a failed search is a
// missing label binding, and an operation the verifier rejects
// manifests as a stack the packet cannot legally grow.
func (d DiscardReason) Drop() swmpls.DropReason {
	switch d {
	case DiscardNotFound:
		return swmpls.DropNoLabel
	case DiscardTTLExpired:
		return swmpls.DropTTLExpired
	case DiscardInconsistent:
		return swmpls.DropStackOverflow
	default:
		return swmpls.DropNone
	}
}
