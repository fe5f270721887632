package main

import (
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// wireStats are the counters of a timed transport. Every field is
// updated atomically: ranks and the engine's gradient-sync goroutines
// call Send and Recv concurrently.
type wireStats struct {
	sendNs, recvNs, frames, bytes atomic.Int64
}

// wireTotals is a point-in-time copy of wireStats.
type wireTotals struct {
	Send, RecvWait time.Duration
	Frames, Bytes  int64
}

func (s *wireStats) totals() wireTotals {
	return wireTotals{
		Send:     time.Duration(s.sendNs.Load()),
		RecvWait: time.Duration(s.recvNs.Load()),
		Frames:   s.frames.Load(),
		Bytes:    s.bytes.Load(),
	}
}

func (a wireTotals) sub(b wireTotals) wireTotals {
	return wireTotals{a.Send - b.Send, a.RecvWait - b.RecvWait, a.Frames - b.Frames, a.Bytes - b.Bytes}
}

// timedTransport is a comm.Transport decorator: it times each Send
// (serialization and enqueue) and each Recv (the wait for the peer's
// frame) and counts frames and accounted payload bytes, then forwards
// the call unchanged.
type timedTransport struct {
	inner comm.Transport
	stats *wireStats
}

func (t *timedTransport) World() int   { return t.inner.World() }
func (t *timedTransport) Close() error { return t.inner.Close() }

func (t *timedTransport) Send(src, dst int, p comm.Payload) {
	start := time.Now()
	t.inner.Send(src, dst, p)
	t.stats.sendNs.Add(int64(time.Since(start)))
	t.stats.frames.Add(1)
	t.stats.bytes.Add(p.SizeBytes())
}

func (t *timedTransport) Recv(dst, src int) comm.Payload {
	start := time.Now()
	p := t.inner.Recv(dst, src)
	t.stats.recvNs.Add(int64(time.Since(start)))
	return p
}

// timedBroadcaster keeps the wrapped transport's encode-once Broadcast
// path visible through the decorator: comm uses Broadcast only when its
// transport implements comm.Broadcaster, so hiding it would change what
// is measured.
type timedBroadcaster struct {
	*timedTransport
	b comm.Broadcaster
}

func (t timedBroadcaster) Broadcast(src int, p comm.Payload) {
	start := time.Now()
	t.b.Broadcast(src, p)
	peers := int64(t.World() - 1)
	t.stats.sendNs.Add(int64(time.Since(start)))
	t.stats.frames.Add(peers)
	t.stats.bytes.Add(peers * p.SizeBytes())
}

// timeTransport wraps tr in the timing decorator; the result
// implements comm.Broadcaster exactly when tr does.
func timeTransport(tr comm.Transport) (comm.Transport, *wireStats) {
	t := &timedTransport{inner: tr, stats: &wireStats{}}
	if b, ok := tr.(comm.Broadcaster); ok {
		return timedBroadcaster{t, b}, t.stats
	}
	return t, t.stats
}
