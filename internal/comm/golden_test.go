package comm

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/hardware"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCostModelGolden pins the simulated cost model bit for bit: every
// MeasureProfile field for each shipped hardware preset (the planner
// reads them), plus the per-device stage charges and ledger rows of one
// accounting-mode AllToAll, AllGather and AllReduce (fp32 and a codec)
// on FourMachines4GPU. Regenerate with -update only when the model is
// meant to change.
func TestCostModelGolden(t *testing.T) {
	var b strings.Builder
	presets := []struct {
		name string
		p    *hardware.Platform
	}{
		{"SingleMachine8GPU", hardware.SingleMachine8GPU()},
		{"FourMachines4GPU", hardware.FourMachines4GPU()},
		{"SingleMachine8GPUNVLink", hardware.SingleMachine8GPUNVLink()},
	}
	for _, ps := range presets {
		prof := MeasureProfile(ps.p)
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"AllToAllBps", prof.AllToAllBps},
			{"AllGatherBps", prof.AllGatherBps},
			{"AllReduceBps", prof.AllReduceBps},
			{"UVAReadBps", prof.UVAReadBps},
			{"RemoteReadBps", prof.RemoteReadBps},
			{"PeerReadBps", prof.PeerReadBps},
			{"GPUReadBps", prof.GPUReadBps},
			{"AllToAllCallSec", prof.AllToAllCallSec},
			{"AllGatherCallSec", prof.AllGatherCallSec},
			{"ReadCallSec", prof.ReadCallSec},
		} {
			fmt.Fprintf(&b, "profile %s %s %016x\n", ps.name, f.name, math.Float64bits(f.v))
		}
	}

	p := hardware.FourMachines4GPU()
	n := p.NumDevices()
	for _, op := range []string{"alltoall", "allgather", "allreduce-fp32", "allreduce-trunc"} {
		c, g := newTestComm(p)
		RunParallel(n, func(dev int) { goldenCollective(c, op, dev) })
		for dev, d := range g.Devices {
			fmt.Fprintf(&b, "%s dev%d %016x\n", op, dev, math.Float64bits(d.Elapsed("golden")))
		}
		for _, e := range c.Ledger.Snapshot() {
			fmt.Fprintf(&b, "%s ledger %s %s %d\n", op, e.Op, e.Kind, e.Bytes)
		}
	}

	const path = "testdata/cost_model.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("cost model drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cost model drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// goldenCollective issues one accounting-mode collective of the given
// kind on dev, charged to the "golden" stage. Payload sizes depend on
// both endpoints so every device's charge differs.
func goldenCollective(c *Comm, kind string, dev int) {
	n := c.NumDevices()
	switch kind {
	case "alltoall":
		outs := make([]Payload, n)
		for j := range outs {
			if j != dev {
				outs[j] = Payload{Bytes: int64(1000*(dev+1) + 37*j)}
			}
		}
		_, op := c.AllToAll(dev, outs)
		c.Charge(dev, "golden", op)
	case "allgather":
		_, op := c.AllGather(dev, Payload{Bytes: int64(4096 + 129*dev)})
		c.Charge(dev, "golden", op)
	case "allreduce-fp32":
		c.Charge(dev, "golden", AllReduceOp(100003, nil))
	case "allreduce-trunc":
		c.Charge(dev, "golden", AllReduceOp(100003, truncCodec{}))
	}
}
