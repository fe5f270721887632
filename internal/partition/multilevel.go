package partition

import "repro/internal/graph"

// MultilevelConfig tunes the multilevel partitioner.
type MultilevelConfig struct {
	// CoarsenTarget stops coarsening once the coarse graph has at most
	// this many nodes per part. Default 30.
	CoarsenTarget int
	// RefinePasses is the number of boundary-refinement sweeps applied
	// at every level. Default 4.
	RefinePasses int
	// BalanceSlack is the allowed node-count overrun versus the ideal,
	// e.g. 0.10 permits parts up to 1.10x ideal size. Default 0.10.
	BalanceSlack float64
	// EdgeBalanced adds a second balance constraint on edge mass
	// (vertex weight 1+degree), METIS-style multi-constraint
	// partitioning: parts stay balanced in node count AND in the edge
	// workload their nodes attract. On skewed graphs, node-only balance
	// concentrates hub workload on one part, which turns SNP/DNP
	// owners into stragglers.
	EdgeBalanced bool
	// EdgeSlack is the allowed edge-mass overrun when EdgeBalanced.
	// Default 0.30.
	EdgeSlack float64
	// Seed drives matching and tie-breaking.
	Seed uint64
}

func (c *MultilevelConfig) defaults() {
	if c.CoarsenTarget <= 0 {
		c.CoarsenTarget = 30
	}
	if c.RefinePasses <= 0 {
		c.RefinePasses = 4
	}
	if c.BalanceSlack <= 0 {
		c.BalanceSlack = 0.10
	}
	if c.EdgeSlack <= 0 {
		c.EdgeSlack = 0.30
	}
}

// Multilevel computes a K-way edge-cut partitioning of g using the
// multilevel scheme: heavy-edge-matching coarsening, greedy
// graph-growing initial partitioning on the coarsest graph, and
// boundary Kernighan–Lin/FM refinement during uncoarsening. This plays
// the role of METIS in the paper.
func Multilevel(g *graph.Graph, k int, cfg MultilevelConfig) *Partitioning {
	cfg.defaults()
	if k <= 1 {
		return &Partitioning{Assign: make([]int32, g.NumNodes()), NumParts: max(k, 1)}
	}
	rng := graph.NewRNG(cfg.Seed)
	w := symmetrize(g)
	if cfg.EdgeBalanced {
		for v := 0; v < w.n(); v++ {
			w.vw[v] = 1 + (w.xadj[v+1] - w.xadj[v])
		}
	}

	// Coarsening phase: stack of graphs and fine->coarse maps.
	graphs := []*wgraph{w}
	var maps [][]int32
	for graphs[len(graphs)-1].n() > k*cfg.CoarsenTarget {
		cur := graphs[len(graphs)-1]
		cmap, coarse := coarsen(cur, rng)
		if coarse.n() >= cur.n()*9/10 {
			break // matching stalled; further coarsening is pointless
		}
		graphs = append(graphs, coarse)
		maps = append(maps, cmap)
	}

	// Initial partition on the coarsest graph.
	coarsest := graphs[len(graphs)-1]
	assign := growInitial(coarsest, k, cfg, rng)
	refine(coarsest, assign, k, cfg, rng)

	// Uncoarsening with refinement at each level.
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

// wgraph is a weighted undirected graph used internally during
// coarsening. Each row is ordered by target. The finest level
// (symmetrize) holds every undirected edge once with weight 1; a
// coarse level accumulates the weights of the fine edges it collapses
// but can hold parallel entries to one target (see coarsen). Vertices
// carry two weights: vw (the balance weight, edge mass under
// multi-constraint partitioning) and nw (collapsed original node
// count, always balanced).
type wgraph struct {
	xadj []int64
	adj  []int32
	adjw []int64 // edge weights
	vw   []int64 // balance weight (1, or 1+degree when edge-balanced)
	nw   []int64 // original node count
}

func (w *wgraph) n() int { return len(w.xadj) - 1 }

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// caps computes the per-part weight ceilings for both constraints.
func caps(w *wgraph, k int, cfg MultilevelConfig) (vwCap, nwCap int64) {
	vwCap = int64(float64(sum64(w.vw)) / float64(k) * (1 + cfg.EdgeSlack))
	nwCap = int64(float64(sum64(w.nw)) / float64(k) * (1 + cfg.BalanceSlack))
	return
}

// symmetrize converts the CSR graph into a weighted undirected wgraph,
// merging the u->v and v->u directions and dropping self-loops and
// repeated entries. Row x lists each neighbour y once, in the order
// the undirected edge {x,y} first appears in a row-major scan of g
// (the edge {a,b}, a<b, first appears in row a if b ∈ N(a), and
// otherwise in row b). With T(x) = {y : x ∈ N(y)}, that order is:
//   - y < x in T(x);
//   - N(x) in stored order, minus x and the y already listed;
//   - y > x in T(x), minus the y already listed.
func symmetrize(g *graph.Graph) *wgraph {
	n := g.NumNodes()
	rev := g.Reverse() // rows of rev list T(x) ascending
	xadj := make([]int64, n+1)
	adj := make([]int32, 0, len(g.Indices))
	listed := make([]int32, n) // listed[y] == x+1: y is already in row x
	for x := 0; x < n; x++ {
		mark := int32(x + 1)
		emit := func(y int32) {
			if y != int32(x) && listed[y] != mark {
				listed[y] = mark
				adj = append(adj, y)
			}
		}
		t := rev.Neighbors(graph.NodeID(x))
		split := 0
		for split < len(t) && t[split] < int32(x) {
			emit(t[split])
			split++
		}
		for _, y := range g.Neighbors(graph.NodeID(x)) {
			emit(y)
		}
		for _, y := range t[split:] {
			emit(y)
		}
		xadj[x+1] = int64(len(adj))
	}

	w := &wgraph{
		xadj: xadj,
		adj:  adj,
		adjw: make([]int64, len(adj)),
		vw:   make([]int64, n),
		nw:   make([]int64, n),
	}
	for i := range w.adjw {
		w.adjw[i] = 1
	}
	for v := range w.vw {
		w.vw[v] = 1
		w.nw[v] = 1
	}
	return w
}

// coarsen matches vertices by heavy-edge matching and collapses matched
// pairs, returning the fine->coarse map and the coarse graph.
func coarsen(w *wgraph, rng *graph.RNG) ([]int32, *wgraph) {
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

	// Coarse edges are gathered in fine-node order. stamp[cu] is the
	// coarse row that last gathered an edge to cu: while it still is
	// cv, a further edge cv->cu adds its weight to that entry. A
	// matched pair whose members are not scanned one after the other
	// can therefore leave parallel entries in its coarse row.
	//
	// The first pass sizes every coarse row (xadj) and every target
	// (toff). The second gathers the entries into one bucket per
	// target, and a final scatter deals each bucket out to the rows, so
	// every row comes out ordered by target without a comparison.
	stamp := make([]int32, cn)
	for i := range stamp {
		stamp[i] = -1
	}
	xadj := make([]int64, cn+1)
	toff := make([]int64, cn+1)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			cu := cmap[w.adj[i]]
			if cu != cv && stamp[cu] != cv {
				stamp[cu] = cv
				xadj[cv+1]++
				toff[cu+1]++
			}
		}
	}
	for v := int32(0); v < cn; v++ {
		xadj[v+1] += xadj[v]
		toff[v+1] += toff[v]
		stamp[v] = -1
	}
	m := xadj[cn]
	type bucketEntry struct {
		src int32
		w   int64
	}
	bucket := make([]bucketEntry, m)
	slot := make([]int64, cn) // slot[cu]: bucket index of stamp[cu]'s entry
	cursor := make([]int64, cn)
	copy(cursor, toff[:cn])
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			cu := cmap[w.adj[i]]
			if cu == cv {
				continue
			}
			if stamp[cu] == cv {
				bucket[slot[cu]].w += w.adjw[i]
				continue
			}
			stamp[cu] = cv
			p := cursor[cu]
			cursor[cu]++
			slot[cu] = p
			bucket[p] = bucketEntry{cv, w.adjw[i]}
		}
	}
	cw := &wgraph{xadj: xadj, adj: make([]int32, m), adjw: make([]int64, m), vw: cvw, nw: cnw}
	copy(cursor, xadj[:cn])
	for cu := int32(0); cu < cn; cu++ {
		for _, e := range bucket[toff[cu]:toff[cu+1]] {
			q := cursor[e.src]
			cursor[e.src]++
			cw.adj[q] = cu
			cw.adjw[q] = e.w
		}
	}
	return cmap, cw
}

// growInitial produces an initial K-way assignment of the coarsest
// graph by greedy graph growing under both balance constraints.
func growInitial(w *wgraph, k int, cfg MultilevelConfig, rng *graph.RNG) []int32 {
	n := w.n()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	vwTarget := sum64(w.vw)/int64(k) + 1
	nwTarget := sum64(w.nw)/int64(k) + 1
	order := rng.Perm(n)
	cursor := 0
	nextSeed := func() int32 {
		for cursor < n {
			v := order[cursor]
			cursor++
			if assign[v] == -1 {
				return v
			}
		}
		return -1
	}
	for part := int32(0); part < int32(k); part++ {
		var vwSum, nwSum int64
		frontier := []int32{}
		grow := func(v int32) {
			assign[v] = part
			vwSum += w.vw[v]
			nwSum += w.nw[v]
			frontier = append(frontier, v)
		}
		if s := nextSeed(); s >= 0 {
			grow(s)
		}
		for vwSum < vwTarget && nwSum < nwTarget && len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				u := w.adj[i]
				if assign[u] != -1 || vwSum >= vwTarget || nwSum >= nwTarget {
					continue
				}
				grow(u)
			}
			if len(frontier) == 0 && vwSum < vwTarget && nwSum < nwTarget {
				if s := nextSeed(); s >= 0 {
					grow(s)
				} else {
					break
				}
			}
		}
	}
	// Stragglers go to the part with the lightest node weight.
	nwSums := make([]int64, k)
	for v := 0; v < n; v++ {
		if assign[v] >= 0 {
			nwSums[assign[v]] += w.nw[v]
		}
	}
	for v := 0; v < n; v++ {
		if assign[v] == -1 {
			best := 0
			for p := 1; p < k; p++ {
				if nwSums[p] < nwSums[best] {
					best = p
				}
			}
			assign[v] = int32(best)
			nwSums[best] += w.nw[v]
		}
	}
	return assign
}

// refine performs boundary FM-style refinement: sweeps over boundary
// vertices moving each to the adjacent part with the highest cut gain,
// subject to both balance constraints.
func refine(w *wgraph, assign []int32, k int, cfg MultilevelConfig, rng *graph.RNG) {
	n := w.n()
	vwCap, nwCap := caps(w, k, cfg)
	vwSums := make([]int64, k)
	nwSums := make([]int64, k)
	for v := 0; v < n; v++ {
		vwSums[assign[v]] += w.vw[v]
		nwSums[assign[v]] += w.nw[v]
	}
	conn := make([]int64, k) // scratch: connectivity of v to each part
	touched := make([]int32, 0, 8)
	for pass := 0; pass < cfg.RefinePasses; pass++ {
		moved := 0
		order := rng.Perm(n)
		for _, v := range order {
			home := assign[v]
			touched = touched[:0]
			boundary := false
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				p := assign[w.adj[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += w.adjw[i]
				if p != home {
					boundary = true
				}
			}
			if boundary {
				bestPart := home
				bestGain := int64(0)
				for _, p := range touched {
					if p == home {
						continue
					}
					if vwSums[p]+w.vw[v] > vwCap || nwSums[p]+w.nw[v] > nwCap {
						continue
					}
					gain := conn[p] - conn[home]
					if gain > bestGain {
						bestGain = gain
						bestPart = p
					}
				}
				if bestPart != home {
					vwSums[home] -= w.vw[v]
					vwSums[bestPart] += w.vw[v]
					nwSums[home] -= w.nw[v]
					nwSums[bestPart] += w.nw[v]
					assign[v] = bestPart
					moved++
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
	rebalance(w, assign, k, nwCap, vwSums, nwSums, rng)
}

// rebalance force-moves boundary vertices out of node-overweight parts
// (graph growing and refinement can leave parts over the node cap when
// the two constraints conflict; node balance wins because it drives
// seed assignment and sampling load).
func rebalance(w *wgraph, assign []int32, k int, nwCap int64, vwSums, nwSums []int64, rng *graph.RNG) {
	n := w.n()
	for iter := 0; iter < 3; iter++ {
		over := false
		for p := 0; p < k; p++ {
			if nwSums[p] > nwCap {
				over = true
			}
		}
		if !over {
			return
		}
		order := rng.Perm(n)
		for _, v := range order {
			home := assign[v]
			if nwSums[home] <= nwCap {
				continue
			}
			// Move v to the lightest-by-node part.
			best := 0
			for p := 1; p < k; p++ {
				if nwSums[p] < nwSums[best] {
					best = p
				}
			}
			if int32(best) == home {
				continue
			}
			assign[v] = int32(best)
			nwSums[home] -= w.nw[v]
			nwSums[best] += w.nw[v]
			vwSums[home] -= w.vw[v]
			vwSums[best] += w.vw[v]
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
