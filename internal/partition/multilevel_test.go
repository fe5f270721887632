package partition

import (
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenScale keeps the golden presets small (a few thousand nodes)
// while still coarsening through several levels.
const goldenScale = 0.02

// messyGraph builds a CSR directly, bypassing graph.Builder, so its
// rows are unsorted and hold repeated entries, self-loops and empty
// rows, and the graph is not symmetric.
func messyGraph(n int, seed uint64) *graph.Graph {
	rng := graph.NewRNG(seed)
	g := &graph.Graph{Indptr: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		deg := rng.Intn(13)
		if v%17 == 0 {
			deg = 0
		}
		for i := 0; i < deg; i++ {
			var u int
			switch r := rng.Intn(10); {
			case r == 0:
				u = v // self-loop
			case r == 1 && i > 0:
				u = int(g.Indices[len(g.Indices)-1]) // repeat
			case r < 5:
				u = (v + 1 + rng.Intn(20)) % n // local
			default:
				u = rng.Intn(n)
			}
			g.Indices = append(g.Indices, graph.NodeID(u))
		}
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	return g
}

// assignHash is the FNV-64a hash of Assign as little-endian int32s.
func assignHash(assign []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestMultilevelGolden pins Multilevel's Assign, byte for byte, on the
// three dataset presets at a small scale (k in {2,3,4,8}, node- and
// edge-balanced, two seeds) and on a hand-built graph with unsorted
// rows, repeated entries and self-loops. Regenerate with -update only
// when partitions are meant to change.
func TestMultilevelGolden(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	for _, spec := range dataset.Presets(goldenScale) {
		inputs = append(inputs, input{spec.Abbr, dataset.Build(spec, false).Graph})
	}
	inputs = append(inputs, input{"messy", messyGraph(1500, 42)})

	var b strings.Builder
	for _, in := range inputs {
		for _, k := range []int{2, 3, 4, 8} {
			for _, eb := range []bool{false, true} {
				for _, seed := range []uint64{1, 7} {
					p := Multilevel(in.g, k, MultilevelConfig{Seed: seed, EdgeBalanced: eb})
					fmt.Fprintf(&b, "%s k=%d edge=%t seed=%d %016x\n", in.name, k, eb, seed, assignHash(p.Assign))
				}
			}
		}
	}
	checkGolden(t, "testdata/multilevel.golden", b.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
	}
}

// oracleSymmetrize is the original symmetrize, kept as the test oracle
// for the linear-time one: it converts the CSR graph into a weighted
// undirected wgraph, merging the u->v and v->u directions through a
// hash set of the edges seen so far.
func oracleSymmetrize(g *graph.Graph) *wgraph {
	n := g.NumNodes()
	type edge struct{ u, v int32 }
	seen := make(map[edge]struct{}, len(g.Indices))
	deg := make([]int64, n+1)
	var edges []edge
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			a, b := u, int32(v)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			e := edge{a, b}
			if _, ok := seen[e]; ok {
				continue
			}
			seen[e] = struct{}{}
			edges = append(edges, e)
			deg[a+1]++
			deg[b+1]++
		}
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	w := &wgraph{
		xadj: deg,
		adj:  make([]int32, deg[n]),
		adjw: make([]int64, deg[n]),
		vw:   make([]int64, n),
		nw:   make([]int64, n),
	}
	for v := range w.vw {
		w.vw[v] = 1
		w.nw[v] = 1
	}
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for _, e := range edges {
		w.adj[cursor[e.u]] = e.v
		w.adjw[cursor[e.u]] = 1
		cursor[e.u]++
		w.adj[cursor[e.v]] = e.u
		w.adjw[cursor[e.v]] = 1
		cursor[e.v]++
	}
	return w
}

// oracleCoarsen is the original coarsen, kept as the test oracle: it
// matches vertices by heavy-edge matching, collapses matched pairs, and
// orders every coarse row with a comparison sort.
func oracleCoarsen(w *wgraph, rng *graph.RNG) ([]int32, *wgraph) {
	n := w.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			u := w.adj[i]
			if match[u] != -1 {
				continue
			}
			if w.adjw[i] > bestW {
				bestW = w.adjw[i]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// Number coarse vertices.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var cn int32
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = cn
		m := match[v]
		if m >= 0 && int(m) != v {
			cmap[m] = cn
		}
		cn++
	}
	// Accumulate both vertex weights.
	cvw := make([]int64, cn)
	cnw := make([]int64, cn)
	for v := 0; v < n; v++ {
		cvw[cmap[v]] += w.vw[v]
		cnw[cmap[v]] += w.nw[v]
	}
	// Gather coarse edges per coarse node using a stamped scratch.
	type centry struct {
		to int32
		w  int64
	}
	rows := make([][]centry, cn)
	stamp := make([]int32, cn)
	for i := range stamp {
		stamp[i] = -1
	}
	slot := make([]int32, cn)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			cu := cmap[w.adj[i]]
			if cu == cv {
				continue
			}
			if stamp[cu] == cv {
				rows[cv][slot[cu]].w += w.adjw[i]
			} else {
				stamp[cu] = cv
				slot[cu] = int32(len(rows[cv]))
				rows[cv] = append(rows[cv], centry{to: cu, w: w.adjw[i]})
			}
		}
	}
	cw := &wgraph{xadj: make([]int64, cn+1), vw: cvw, nw: cnw}
	for v := int32(0); v < cn; v++ {
		cw.xadj[v+1] = cw.xadj[v] + int64(len(rows[v]))
	}
	cw.adj = make([]int32, cw.xadj[cn])
	cw.adjw = make([]int64, cw.xadj[cn])
	for v := int32(0); v < cn; v++ {
		row := rows[v]
		sort.Slice(row, func(i, j int) bool { return row[i].to < row[j].to })
		base := cw.xadj[v]
		for i, e := range row {
			cw.adj[base+int64(i)] = e.to
			cw.adjw[base+int64(i)] = e.w
		}
	}
	return cmap, cw
}

// oracleMultilevel is Multilevel's driver over the oracle symmetrize
// and coarsen.
func oracleMultilevel(g *graph.Graph, k int, cfg MultilevelConfig) *Partitioning {
	cfg.defaults()
	if k <= 1 {
		return &Partitioning{Assign: make([]int32, g.NumNodes()), NumParts: max(k, 1)}
	}
	rng := graph.NewRNG(cfg.Seed)
	w := oracleSymmetrize(g)
	if cfg.EdgeBalanced {
		for v := 0; v < w.n(); v++ {
			w.vw[v] = 1 + (w.xadj[v+1] - w.xadj[v])
		}
	}
	graphs := []*wgraph{w}
	var maps [][]int32
	for graphs[len(graphs)-1].n() > k*cfg.CoarsenTarget {
		cur := graphs[len(graphs)-1]
		cmap, coarse := oracleCoarsen(cur, rng)
		if coarse.n() >= cur.n()*9/10 {
			break
		}
		graphs = append(graphs, coarse)
		maps = append(maps, cmap)
	}
	coarsest := graphs[len(graphs)-1]
	assign := growInitial(coarsest, k, cfg, rng)
	refine(coarsest, assign, k, cfg, rng)
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		cmap := maps[lvl]
		fineAssign := make([]int32, fine.n())
		for v := range fineAssign {
			fineAssign[v] = assign[cmap[v]]
		}
		assign = fineAssign
		refine(fine, assign, k, cfg, rng)
	}
	return &Partitioning{Assign: assign, NumParts: k}
}

// sameWgraph reports whether a and b hold the same weighted graph.
// The order of entries that share a row and a target may differ (the
// oracle's comparison sort is not stable); nothing downstream reads
// that order. Rows of a must be ordered by target.
func sameWgraph(a, b *wgraph) string {
	if !slices.Equal(a.xadj, b.xadj) || !slices.Equal(a.vw, b.vw) || !slices.Equal(a.nw, b.nw) {
		return "xadj or vertex weights differ"
	}
	type entry struct {
		to int32
		w  int64
	}
	canon := func(w *wgraph, v int) []entry {
		var row []entry
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			row = append(row, entry{w.adj[i], w.adjw[i]})
		}
		slices.SortFunc(row, func(x, y entry) int {
			return cmp.Or(cmp.Compare(x.to, y.to), cmp.Compare(x.w, y.w))
		})
		return row
	}
	for v := 0; v < a.n(); v++ {
		if !slices.IsSorted(a.adj[a.xadj[v]:a.xadj[v+1]]) {
			return fmt.Sprintf("row %d not ordered by target: %v", v, a.adj[a.xadj[v]:a.xadj[v+1]])
		}
		got, want := canon(a, v), canon(b, v)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("row %d, sorted entry %d: %v, oracle %v", v, i, got[i], want[i])
			}
		}
	}
	return ""
}

// checkAgainstOracle requires symmetrize to equal the oracle's exactly,
// every coarsening level (each side coarsening its own previous level,
// with its own same-seeded RNG) to equal the oracle's up to the order of
// same-target entries, and Multilevel's Assign to equal the oracle's.
func checkAgainstOracle(t *testing.T, g *graph.Graph, k int, cfg MultilevelConfig) {
	t.Helper()
	w, wo := symmetrize(g), oracleSymmetrize(g)
	if !slices.Equal(w.xadj, wo.xadj) || !slices.Equal(w.adj, wo.adj) || !slices.Equal(w.adjw, wo.adjw) ||
		!slices.Equal(w.vw, wo.vw) || !slices.Equal(w.nw, wo.nw) {
		t.Fatalf("symmetrize differs from the oracle:\n got    %v %v\n oracle %v %v", w.xadj, w.adj, wo.xadj, wo.adj)
	}
	rng, rngo := graph.NewRNG(cfg.Seed), graph.NewRNG(cfg.Seed)
	for lvl := 1; w.n() > 1; lvl++ {
		cmap, c := coarsen(w, rng)
		cmapo, co := oracleCoarsen(wo, rngo)
		if !slices.Equal(cmap, cmapo) {
			t.Fatalf("level %d: coarse map differs from the oracle", lvl)
		}
		if d := sameWgraph(c, co); d != "" {
			t.Fatalf("level %d: %s", lvl, d)
		}
		if c.n() >= w.n()*9/10 {
			break
		}
		w, wo = c, co
	}
	got, want := Multilevel(g, k, cfg), oracleMultilevel(g, k, cfg)
	if !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("k=%d %+v: Assign differs from the oracle", k, cfg)
	}
}

func TestMultilevelMatchesOracle(t *testing.T) {
	ps, err := dataset.ByAbbr("PS", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*graph.Graph{dataset.Build(ps, false).Graph, messyGraph(700, 3)} {
		for _, k := range []int{2, 5} {
			checkAgainstOracle(t, in, k, MultilevelConfig{Seed: uint64(k), EdgeBalanced: k == 5})
		}
	}
}

// decodeCase turns fuzz bytes into a small CSR and a configuration.
// The header picks the node count (1..96), k (1..8), the coarsening
// target (1..8, so even small graphs coarsen over several levels),
// EdgeBalanced and the seed. Each following byte pair is a row's length
// (0..7) and a value from which that row's entries are drawn, so rows
// come out unsorted with repeats and self-loops; rows past the end of
// the data are empty.
func decodeCase(data []byte) (*graph.Graph, int, MultilevelConfig) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%96
	k := 1 + int(at(1))%8
	cfg := MultilevelConfig{
		CoarsenTarget: 1 + int(at(2))%8,
		EdgeBalanced:  at(3)&1 == 1,
		Seed:          uint64(at(4)),
	}
	g := &graph.Graph{Indptr: make([]int64, n+1)}
	body := data[min(len(data), 5):]
	for v := 0; v < n; v++ {
		if 2*v+1 < len(body) {
			deg, x := int(body[2*v])%8, int(body[2*v+1])
			for i := 0; i < deg; i++ {
				g.Indices = append(g.Indices, graph.NodeID((x+i*i*(v+1))%n))
			}
		}
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	return g, k, cfg
}

// FuzzMultilevel checks the linear-time symmetrize and coarsen, and the
// Assign they lead to, against the oracle on small messy graphs.
func FuzzMultilevel(f *testing.F) {
	f.Add([]byte{40, 2, 3, 0, 1, 3, 7, 2, 9, 5, 1, 7, 200, 0, 0, 4, 4, 6, 33})
	f.Add([]byte{95, 7, 1, 1, 9, 7, 1, 7, 2, 7, 3, 7, 4, 7, 5, 7, 6, 7, 7, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{60, 3, 2, 1, 250, 6, 6, 6, 6, 1, 1, 0, 0, 5, 90, 5, 91, 5, 92, 3, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, cfg := decodeCase(data)
		checkAgainstOracle(t, g, k, cfg)
	})
}

// BenchmarkMultilevel partitions friendster-sim and papers-sim at the
// scales and k of the two training workloads, edge-balanced as
// core.Task does.
func BenchmarkMultilevel(b *testing.B) {
	for _, c := range []struct {
		abbr  string
		scale float64
		k     int
	}{
		{"FS", 0.5, 2},
		{"PS", 0.25, 4},
	} {
		spec, err := dataset.ByAbbr(c.abbr, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		g := dataset.Build(spec, false).Graph
		b.Run(fmt.Sprintf("%s-%g-k%d", spec.Name, c.scale, c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Multilevel(g, c.k, MultilevelConfig{Seed: 1, EdgeBalanced: true})
			}
		})
	}
}
