package comm

import (
	"repro/internal/device"
	"repro/internal/hardware"
)

// Operator names: the Ledger rows and comm spans collectives land on.
// AllGather records as "alltoall" — it is the AllToAll that sends one
// payload to every peer.
const (
	opAllToAll  = "alltoall"
	opAllReduce = "allreduce"
)

// Op is the record of one collective on one device: everything Charge
// needs to price it. Pairwise ops (AllToAll, AllGather) carry the bytes
// the device sent to and received from each peer; an allreduce carries
// its element count and wire codec (AllReduceOp).
type Op struct {
	// Name is the operator the Ledger and the span record.
	Name string
	// SendTo[j] and RecvFrom[j] are the bytes exchanged with peer j.
	SendTo, RecvFrom []int64
	// Elems is the allreduce's float32 count; Codec its wire codec
	// (nil = exact fp32).
	Elems int
	Codec ChunkCodec
}

// newOp returns a pairwise Op with zeroed per-peer byte counts, both
// backed by one allocation.
func (c *Comm) newOp(name string) Op {
	b := make([]int64, 2*c.n)
	return Op{Name: name, SendTo: b[:c.n:c.n], RecvFrom: b[c.n:]}
}

// AllReduceOp describes one ring allreduce of elems float32 values
// under codec (nil = exact fp32). The data plane (RingAllReduceData)
// returns no record because the element count alone prices it.
func AllReduceOp(elems int, codec ChunkCodec) Op {
	return Op{Name: opAllReduce, Elems: elems, Codec: codec}
}

// Charge prices op for device dev and records it: the seconds go to
// dev's stage clock, the bytes to the Ledger and, when observability is
// on, a span to dev's comm track at the current comm Clock. It returns
// the seconds. This file is the only code that moves collectives onto
// the simulated clocks and the Ledger; the data plane never does.
func (c *Comm) Charge(dev int, stage string, op Op) float64 {
	k := price(c.Group.Platform, c.n, dev, op)
	var start float64
	if c.Spans != nil {
		start = c.Clock(dev)
	}
	c.Group.Devices[dev].Charge(stage, k.secs)
	c.record(dev, op.Name, -1, start, k)
	return k.secs
}

// ChargeOverlapped prices op as a transfer that ran beside dev's
// compute instead of blocking it — the engine's bucketed gradient sync
// — starting at start on the comm Clock. It records the Ledger bytes
// and a span tagged with layer but charges no stage: the caller charges
// the tail that compute did not hide with ChargeExposed. It returns
// op's seconds.
func (c *Comm) ChargeOverlapped(dev int, op Op, layer int, start float64) float64 {
	k := price(c.Group.Platform, c.n, dev, op)
	c.record(dev, op.Name, layer, start, k)
	return k.secs
}

// ChargeExposed charges stage with the part of dev's overlapped
// transfers, ending at end on the comm Clock, that compute did not
// hide, and returns it (zero when compute outlasted them).
func (c *Comm) ChargeExposed(dev int, stage string, end float64) float64 {
	exposed := end - c.Clock(dev)
	if exposed <= 0 {
		return 0
	}
	c.Group.Devices[dev].Charge(stage, exposed)
	return exposed
}

// Clock is the axis collective spans sit on: dev's cumulative
// build+load+train+shuffle time. Collectives only charge those stages,
// and the device's compute goroutine owns them serially, so the axis
// is strictly monotone and independent of how a concurrent prefetcher
// interleaves sample-clock charges.
func (c *Comm) Clock(dev int) float64 {
	d := c.Group.Devices[dev]
	return d.Elapsed(device.StageBuild) + d.Elapsed(device.StageLoad) +
		d.Elapsed(device.StageTrain) + d.Elapsed(device.StageShuffle)
}

// cost is what one Op costs one device.
type cost struct {
	secs float64
	// wire is the span's byte count: both directions for pairwise ops,
	// the modeled ring volume for an allreduce.
	wire int64
	// ledger[k] is the bytes the op puts on link kind k; rows has bit k
	// set for each kind that gets a Ledger row.
	ledger [4]int64
	rows   uint8
}

// record writes a priced collective to the Ledger and, when
// observability is on, a span of k.secs at start (offset by SpanBase)
// on dev's comm track.
func (c *Comm) record(dev int, name string, layer int, start float64, k cost) {
	for kind := range k.ledger {
		if k.rows&(1<<kind) != 0 {
			c.Ledger.Add(name, hardware.LinkKind(kind), k.ledger[kind])
		}
	}
	if c.Spans != nil {
		if c.SpanBase != nil {
			start += *c.SpanBase
		}
		c.Spans[dev].Emit(name, layer, start, k.secs, k.wire)
	}
}

// price turns op into device dev's cost on platform p with n devices.
func price(p *hardware.Platform, n, dev int, op Op) cost {
	if op.Name == opAllReduce {
		return priceRing(p, n, op.Elems, op.Codec)
	}
	return pricePairwise(p, n, dev, op.SendTo, op.RecvFrom)
}

// pricePairwise prices a pairwise exchange where sendTo[j]/recvFrom[j]
// bytes move between dev and each peer j. The device's link serializes
// its byte volume per link kind, but the per-message latencies of
// concurrent peer connections pipeline, so latency is charged once per
// link kind used; send and receive overlap (full duplex), so the
// charge is the max of the two directions.
func pricePairwise(p *hardware.Platform, n, dev int, sendTo, recvFrom []int64) cost {
	var k cost
	var recvBytes [4]int64 // indexed by hardware.LinkKind
	for j := 0; j < n; j++ {
		if j == dev {
			continue
		}
		kind := p.InterconnectKind(dev, j)
		if sendTo[j] > 0 {
			k.ledger[kind] += sendTo[j]
			k.rows |= 1 << kind
		}
		recvBytes[kind] += recvFrom[j]
	}
	dirTime := func(bytes [4]int64) float64 {
		var t float64
		for kind := hardware.LinkKind(0); int(kind) < len(bytes); kind++ {
			if bytes[kind] == 0 {
				continue
			}
			conc := 1
			if kind == hardware.LinkNetwork {
				conc = p.GPUsPerMachine // machine NIC shared by its GPUs
			}
			t += p.TransferTime(kind, bytes[kind], conc)
		}
		return t
	}
	k.secs = dirTime(k.ledger)
	if rt := dirTime(recvBytes); rt > k.secs {
		k.secs = rt
	}
	for kind := range k.ledger {
		k.wire += k.ledger[kind] + recvBytes[kind]
	}
	return k
}

// priceRing is the ring-allreduce model for elems float32 values: each
// rank moves 2·(n-1)/n of the (encoded) volume over the slowest link
// on the ring, paying one latency per hop. A codec replaces the fp32
// volume with the summed encoded sizes of the ring's chunks.
func priceRing(p *hardware.Platform, n, elems int, codec ChunkCodec) cost {
	ringBW := p.Bandwidth[hardware.LinkPCIe]
	if p.HasNVLink {
		ringBW = p.Bandwidth[hardware.LinkNVLink]
	}
	kind := hardware.LinkPCIe
	if p.Machines > 1 {
		if nb := p.Bandwidth[hardware.LinkNetwork]; nb < ringBW {
			ringBW = nb
			kind = hardware.LinkNetwork
		}
	}
	enc := float64(int64(elems) * 4)
	if codec != nil {
		var total int
		for i := 0; i < n; i++ {
			total += codec.EncodedLen(chunkLen(elems, n, i))
		}
		enc = float64(total)
	}
	var k cost
	k.wire = int64(2 * enc * float64(n-1) / float64(n))
	k.secs = p.Latency[kind]*float64(2*(n-1)) + float64(k.wire)/ringBW
	k.ledger[kind] = k.wire
	k.rows = 1 << kind
	return k
}
