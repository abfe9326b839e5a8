//go:build !linux || !(amd64 || arm64)

package transport

import "syscall"

// Fallback for platforms without the batched syscall path: the link and
// receiver loop over single-datagram writes and reads instead (one
// syscall per datagram), so the frame-coalescing half of the batched
// wire path still amortises syscalls — just per frame rather than per
// syscall batch. None of these methods are reachable when haveMmsg is
// false; they exist to keep the callers platform-agnostic.

const haveMmsg = false

type mmsgIO struct{ n, done int }

func newMmsgIO(int) *mmsgIO { return &mmsgIO{} }

func (io *mmsgIO) load([][]byte) {}

func (io *mmsgIO) sendStep(uintptr) (int, syscall.Errno) {
	panic("transport: sendmmsg unavailable on this platform")
}

func (io *mmsgIO) recvStep(uintptr) (int, syscall.Errno) {
	panic("transport: recvmmsg unavailable on this platform")
}

func (io *mmsgIO) size(int) int { return 0 }
