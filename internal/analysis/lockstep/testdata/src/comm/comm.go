// Package comm stubs the repo's collective layer: the method names and
// the package-path suffix are what lockstep matches on.
package comm

type Payload struct{ Bytes int64 }

// Op is the record a data-plane collective returns for Charge.
type Op struct{ Name string }

type Comm struct{ world int }

func (c *Comm) RingAllReduceData(dev int, xs []float32)          {}
func (c *Comm) Barrier(dev int)                                  {}
func (c *Comm) AnyTrue(dev int, v bool) bool                     { return v }
func (c *Comm) AllGather(dev int, p Payload) ([]Payload, Op)     { return nil, Op{} }
func (c *Comm) AllToAll(dev int, outs []Payload) ([]Payload, Op) { return nil, Op{} }

// Charge is the pricing path — local arithmetic on the device's own
// clock, not a rendezvous. The analyzer must not treat it as a
// collective.
func (c *Comm) Charge(dev int, stage string, op Op) float64 { return 0 }

func (c *Comm) Rank() int { return 0 }
