// Package comm implements the communication layer of the unified
// execution engine: the collectives the paper's strategies insert at
// DGL kernel barriers (AllToAll, AllBroadcast/AllGather, AllReduce) as
// message exchanges between device goroutines.
//
// The package has two parts. The data plane (this file and ring.go)
// moves payloads and never touches the simulated clocks: AllToAll and
// AllGather return an Op record of the bytes they exchanged with each
// peer. The pricing path (price.go) is the only code that turns an Op
// into simulated seconds with the platform's link model, charges them
// to a device stage clock, records the bytes in a volume ledger for
// the cost models, and emits the comm span.
//
// Collectives are synchronous: every device of the group must call the
// same sequence of collectives (the engine runs devices in lockstep per
// mini-batch step). The collectives run over a pluggable Transport
// (transport.go): on the default in-process backend payload matrices
// move by reference — the "wire" is a Go channel — while the TCP
// backend in package transport serializes them across real sockets
// between rank processes. Either way Charge prices the bytes as if they
// crossed the platform's PCIe/NVLink/network links, so the planner's
// accounting is backend-independent.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Payload is one message between devices. In accounting mode Mat and
// Ints are nil and only Bytes counts; in real mode Bytes adds to the
// encoded size of Mat/Ints (e.g. header overheads are ignored).
type Payload struct {
	Mat  *tensor.Matrix
	Ints []int32
	// Data carries an arbitrary structure (e.g. an encoded subgraph);
	// its wire size is NOT derived automatically — senders account for
	// it via Bytes.
	Data  any
	Bytes int64
}

// SizeBytes returns the accounted wire size.
func (p Payload) SizeBytes() int64 {
	s := p.Bytes + 4*int64(len(p.Ints))
	if p.Mat != nil {
		s += p.Mat.Bytes()
	}
	return s
}

// Comm connects the devices of one group. The collectives run over a
// Transport (see transport.go for the contract and the concurrency
// ownership rule): in-process channels by default, or a wire backend
// where each rank is its own OS process.
type Comm struct {
	Group  *device.Group
	Ledger *Ledger
	n      int
	tr     Transport
	// Spans, when non-nil, holds one observability track per device on
	// which every charged collective emits a span (operator name, bytes
	// moved, charged seconds). Spans[dev] is only touched from dev's own
	// goroutine. SpanBase, when non-nil, offsets span start times (the
	// engine advances it between epochs); it is only written while no
	// device goroutines run.
	Spans    []*obs.Track
	SpanBase *float64
	// ring holds per-rank ring-allreduce scratch; ring[dev] is only
	// touched from dev's own goroutines (see ringState).
	ring []*ringState
}

// New creates the communication fabric for a device group over the
// default in-process channel transport.
func New(g *device.Group) *Comm {
	return NewWithTransport(g, NewChanTransport(len(g.Devices)))
}

// NewWithTransport creates the communication fabric over an explicit
// transport whose ranks map to the group's device IDs. The timing
// model is unchanged — bytes are charged to the simulated clocks via
// the platform link model regardless of what physically carries them —
// so the planner's accounting stays comparable across backends; wire
// backends additionally expose their measured speeds for calibration
// (package transport).
func NewWithTransport(g *device.Group, tr Transport) *Comm {
	n := len(g.Devices)
	if tr.World() != n {
		panic(fmt.Sprintf("comm: transport world %d != group size %d", tr.World(), n))
	}
	return &Comm{Group: g, Ledger: NewLedger(), n: n, tr: tr, ring: make([]*ringState, n)}
}

// Transport returns the fabric the collectives run on.
func (c *Comm) Transport() Transport { return c.tr }

// NumDevices returns the group size.
func (c *Comm) NumDevices() int { return c.n }

// AllToAll exchanges outs[j] (destined to device j) among all devices
// and returns the payloads received by dev (indexed by sender), plus
// the Op record Charge prices. The paper's strategies use it to ship
// subgraphs (SNP/DNP Shuffle) and hidden embeddings (Reshuffle).
func (c *Comm) AllToAll(dev int, outs []Payload) ([]Payload, Op) {
	for j := 0; j < c.n; j++ {
		if j != dev {
			c.tr.Send(dev, j, outs[j])
		}
	}
	in := c.recvAll(dev, outs[dev])
	op := c.newOp(opAllToAll)
	for j := 0; j < c.n; j++ {
		if j != dev {
			op.SendTo[j] = outs[j].SizeBytes()
			op.RecvFrom[j] = in[j].SizeBytes()
		}
	}
	return in, op
}

// AllGather broadcasts each device's payload to every other device
// (the paper's AllBroadcast used by NFP to share layer-1 computation
// graphs) and returns all payloads indexed by source device, plus the
// Op record Charge prices. The single payload is broadcast directly —
// no per-peer copies are materialized — but its Op is the AllToAll
// that sends p to every peer, so the ledger's "alltoall" row and the
// charge are byte-identical to that formulation.
func (c *Comm) AllGather(dev int, p Payload) ([]Payload, Op) {
	in := c.gather(dev, p)
	op := c.newOp(opAllToAll)
	sz := p.SizeBytes()
	for j := 0; j < c.n; j++ {
		if j != dev {
			op.SendTo[j] = sz
			op.RecvFrom[j] = in[j].SizeBytes()
		}
	}
	return in, op
}

// AnyTrue exchanges one boolean among all devices and returns their
// disjunction — the collective the engine uses to agree on context
// cancellation at step boundaries. Every device must call it at the
// same point.
func (c *Comm) AnyTrue(dev int, v bool) bool {
	var b int64
	if v {
		b = 1
	}
	any := false
	for _, p := range c.gather(dev, Payload{Bytes: b}) {
		if p.Bytes != 0 {
			any = true
		}
	}
	return any
}

// Barrier blocks until every device has reached it.
func (c *Comm) Barrier(dev int) {
	c.gather(dev, Payload{})
}

// gather is AllGather's data movement without the Op record.
func (c *Comm) gather(dev int, p Payload) []Payload {
	if b, ok := c.tr.(Broadcaster); ok {
		b.Broadcast(dev, p)
	} else {
		for j := 0; j < c.n; j++ {
			if j != dev {
				c.tr.Send(dev, j, p)
			}
		}
	}
	return c.recvAll(dev, p)
}

// recvAll receives one payload from every peer in rank order; the
// local slot short-circuits to own.
func (c *Comm) recvAll(dev int, own Payload) []Payload {
	in := make([]Payload, c.n)
	in[dev] = own
	for j := 0; j < c.n; j++ {
		if j != dev {
			in[j] = c.tr.Recv(dev, j)
		}
	}
	return in
}

// RunParallel launches fn once per device on its own goroutine and
// waits for all to finish — the engine's worker harness (the simulated
// analogue of the paper launching one DDP process per GPU).
func RunParallel(n int, fn func(dev int)) {
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			fn(d)
		}(d)
	}
	wg.Wait()
}
