package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// ShardedReceiver is a group of SO_REUSEPORT sockets bound to one UDP
// address, one receiver (and so one kernel receive queue and one read
// goroutine) per shard. The kernel hashes each arriving 4-tuple to one
// socket, so a connected sender sticks to one shard for its lifetime —
// each dataplane shard worker can own a receive queue end to end, with
// no cross-shard handoff in user space.
type ShardedReceiver struct {
	rs []*Receiver
}

// ListenSharded opens n SO_REUSEPORT sockets on addr (":0" picks one
// free port shared by the whole group) and starts a read loop per
// shard. sink is called once per shard index to build that shard's
// delivery function — hand shard i's batches to dataplane shard i
// (router.Network.FeedTo) and the socket-to-worker path never crosses
// shards. n == 1 degrades to a plain Listen-equivalent socket and
// works on every platform; n > 1 requires SO_REUSEPORT support.
func ListenSharded(addr string, n int, sink func(shard int) func(batch []Inbound), opts ...Option) (*ShardedReceiver, error) {
	if n < 1 {
		n = 1
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if n == 1 {
		r, err := Listen(addr, sink(0), opts...)
		if err != nil {
			return nil, err
		}
		return &ShardedReceiver{rs: []*Receiver{r}}, nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	s := &ShardedReceiver{}
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("transport: listen sharded %s (shard %d/%d): %w", addr, i, n, err)
		}
		conn, ok := pc.(*net.UDPConn)
		if !ok {
			pc.Close()
			s.Close()
			return nil, fmt.Errorf("transport: listen sharded %s: unexpected conn type %T", addr, pc)
		}
		if i == 0 {
			// The first bind resolves ":0"; the rest of the group must
			// join the same concrete port.
			addr = conn.LocalAddr().String()
		}
		r, err := newReceiver(conn, sink(i), cfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("transport: listen sharded %s (shard %d/%d): %w", addr, i, n, err)
		}
		s.rs = append(s.rs, r)
	}
	return s, nil
}

// Addr returns the group's shared bound address.
func (s *ShardedReceiver) Addr() net.Addr { return s.rs[0].Addr() }

// Shards returns the number of shard sockets.
func (s *ShardedReceiver) Shards() int { return len(s.rs) }

// Receiver returns shard i's receiver (its metrics, its address).
func (s *ShardedReceiver) Receiver(i int) *Receiver { return s.rs[i] }

// Close tears down every shard socket and waits for each read loop to
// flush its last batch. Idempotent, safe on a partially constructed
// group and under concurrent send load — senders racing the teardown
// see socket errors, counted on their side, exactly like a one-socket
// receiver going away.
func (s *ShardedReceiver) Close() error {
	var errs []error
	for _, r := range s.rs {
		if r != nil {
			errs = append(errs, r.Close())
		}
	}
	return errors.Join(errs...)
}
