package cache

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// listHash is the FNV-64a hash of per-device node lists, each prefixed
// by its length, as little-endian int32s.
func listHash(lists [][]graph.NodeID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, l := range lists {
		put(int32(len(l)))
		for _, v := range l {
			put(v)
		}
	}
	return h.Sum64()
}

const selectDevices = 4

// selectFixture builds a papers-sim graph at the given scale, access
// counts drawn from a narrow range (so most ranks are decided by the
// node-ID tie-break) plus a few clear hot rows, and a random assignment
// of nodes to selectDevices devices.
func selectFixture(tb testing.TB, scale float64) (*graph.Graph, []int64, []int32) {
	spec, err := dataset.ByAbbr("PS", scale)
	if err != nil {
		tb.Fatal(err)
	}
	g := dataset.Build(spec, false).Graph
	n := g.NumNodes()
	rng := graph.NewRNG(5)
	freq := make([]int64, n)
	for v := range freq {
		freq[v] = int64(rng.Intn(40))
		if v%97 == 0 {
			freq[v] += 1000
		}
	}
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(rng.Intn(selectDevices))
	}
	return g, freq, assign
}

// TestSelectGolden pins the lists Select and SelectTiered return for
// every policy on a small selectFixture. Regenerate with -update only
// when cache contents are meant to change.
func TestSelectGolden(t *testing.T) {
	g, freq, assign := selectFixture(t, 0.02)
	n := g.NumNodes()
	var b strings.Builder
	for _, pol := range []Policy{PolicyHotGlobal, PolicyHotPartition, PolicyHotPartitionPlus1Hop, PolicyDegree} {
		for _, capNodes := range []int{0, 1, 37, n / 20, n} {
			cfg := SelectConfig{
				Policy: pol, Freq: freq, Assign: assign, Graph: g,
				CapacityNodes: capNodes, Devices: selectDevices,
			}
			fmt.Fprintf(&b, "%s select cap=%d %016x\n", pol, capNodes, listHash(Select(cfg)))
			for _, warmNodes := range []int{0, 53, n / 10} {
				hot, warm := SelectTiered(cfg, warmNodes)
				fmt.Fprintf(&b, "%s tiered cap=%d warm=%d %016x %016x\n", pol, capNodes, warmNodes, listHash(hot), listHash(warm))
			}
		}
	}

	const path = "testdata/select.golden"
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
				t.Fatalf("cache lists drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cache lists drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// BenchmarkSelectTiered selects a 4% fp32 band and a 4% int8 band per
// device on papers-sim at scale 0.25, for every policy.
func BenchmarkSelectTiered(b *testing.B) {
	g, freq, assign := selectFixture(b, 0.25)
	n := g.NumNodes()
	for _, pol := range []Policy{PolicyHotGlobal, PolicyHotPartition, PolicyHotPartitionPlus1Hop, PolicyDegree} {
		cfg := SelectConfig{
			Policy: pol, Freq: freq, Assign: assign, Graph: g,
			CapacityNodes: n / 25, Devices: selectDevices,
		}
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SelectTiered(cfg, n/25)
			}
		})
	}
}
