package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// Serving workload: an open-loop generator sends single-node requests
// on a fixed schedule, then closed-loop bursts saturate the server.
// Rates were calibrated on a 2-core host: p50 is about 3 ms at 1000/s
// and 4-5 ms at 3000/s, and closed-loop saturation serves 8k-13k
// requests/s with full batches. That host's timer jitter alone puts the
// p99 of an idle 1 ms sleep near 6 ms (max 15 ms), so the gated latency
// is the p50 at 1000/s, its part beyond the batching delay scaled to a
// reference speed of the host (see scaledLatency). The gated throughput
// is the saturation capacity scaled the same way (see refKernel). The
// goodput at a fixed rate below the knee only echoes the offered rate,
// and the raw capacity followed the host's speed, which drifted by up to
// a third between runs a minute apart; so did answers per CPU-second,
// as the process kept both CPUs busy throughout.
const (
	serveScale    = 0.25
	serveWorkers  = 2
	serveMaxBatch = 64
	// serveSetupRepeats: serve.New takes tens of milliseconds, so the
	// median needs more samples than the train workloads' set-up.
	serveSetupRepeats = 9
	// serveCap bounds outstanding requests; a request that finds it
	// full is refused.
	serveCap = 1024
	// serveMaxDelay is the server's batching delay, its default.
	serveMaxDelay = 2 * time.Millisecond
	// serveLowRate is well below the knee: latency there is the 2 ms
	// batching delay plus one inference.
	serveLowRate = 1000.0
	// serveLowWindows splits the low phase into open-loop windows, so
	// the reference kernel can be timed between them.
	serveLowWindows = 10
	// serveHighRate is a third of the knee: batches form from several
	// requests, and a per-batch cost shows as queueing.
	serveHighRate = 3000.0
	// serveClients keep this many requests outstanding in the saturation
	// phase: four full batches, so both workers always have one queued.
	serveClients = 4 * serveMaxBatch
	// serveBursts splits the saturation phase into closed-loop bursts,
	// so the reference kernel can be timed between them.
	serveBursts = 15
	// Budget shares of the timed phase. The high rate feeds printed
	// figures only, so the gated low rate and saturation take the most;
	// saturation throughput varies most, so it takes the largest.
	serveWarmShare       = 0.05
	serveLowShare        = 0.3
	serveHighShare       = 0.1
	serveSaturationShare = 0.55
)

// serveCacheBytes is the serving workload's per-device cache budget.
func serveCacheBytes(ds *dataset.Dataset) int64 { return ds.CacheBytesFraction(cacheFrac) }

// replayStore is a store configured as serve.New configures it: host
// placement by range, degree-ranked fp32 and int8 cache tiers.
func replayStore(p *hardware.Platform, ds *dataset.Dataset) *cache.Store {
	dim := ds.FeatDim
	store := cache.NewStore(p, ds.Graph.NumNodes(), dim, ds.Feats)
	store.HostByRange()
	budget := serveCacheBytes(ds)
	warm := int64(float64(budget) * psInt8)
	hot, wl := cache.SelectTiered(cache.SelectConfig{
		Policy:        cache.PolicyDegree,
		Graph:         ds.Graph,
		CapacityNodes: int((budget - warm) / int64(4*dim)),
		Devices:       p.NumDevices(),
	}, int(warm/tensor.QuantRowBytes(dim)))
	for d := range hot {
		store.ConfigureCacheTiered(d, hot[d], wl[d])
	}
	return store
}

// outcome of one request.
const (
	reqOK = iota
	reqRefused
	reqError
	reqInvalid
)

// loadResult is one load phase, open-loop (a rate) or closed-loop (rate 0).
type loadResult struct {
	rate     float64
	lat      []time.Duration // from the due time to completion
	outcome  []int8
	late     []time.Duration // how late the generator sent each request
	loss     []float64       // served cross-entropy against the true label
	wall     time.Duration   // first due time to last completion
	problems []string
}

func (r *loadResult) count(o int8) int {
	n := 0
	for _, x := range r.outcome {
		if x == o {
			n++
		}
	}
	return n
}

// okLatencies are the latencies of requests that completed validly;
// a refused or failed request has none (it misses every limit).
func (r *loadResult) okLatencies() []float64 {
	var out []float64
	for i, o := range r.outcome {
		if o == reqOK {
			out = append(out, r.lat[i].Seconds())
		}
	}
	return out
}

// popularNodes draws request nodes with probability proportional to
// their degree: each request names the owner of a uniformly random edge
// slot of the graph. The popularity skew is therefore the dataset
// preset's own node-access skew (its RMAT SkewA), not a chosen
// exponent. On papers-sim at scale 0.25 the top 1% of nodes draw 27% of
// requests, and a Zipf fit over the top 10% of ranks gives s = 0.81.
type popularNodes struct {
	indptr []int64 // the graph's CSR offsets: cumulative degrees
	r      *rand.Rand
}

func newPopularNodes(g *graph.Graph, seed uint64) *popularNodes {
	return &popularNodes{indptr: g.Indptr, r: rand.New(rand.NewSource(int64(seed)))}
}

func (p *popularNodes) next() graph.NodeID {
	n := len(p.indptr) - 1
	x := p.r.Int63n(p.indptr[n])
	return graph.NodeID(sort.Search(n, func(v int) bool { return p.indptr[v+1] > x }))
}

// fork returns a generator with the same popularity and its own random
// stream, for a concurrent client.
func (p *popularNodes) fork(stream int64) *popularNodes {
	return &popularNodes{indptr: p.indptr, r: rand.New(rand.NewSource(stream))}
}

// openLoop sends rate requests per second for dur, each on its own
// goroutine when a slot under serveCap is free, and waits for all of
// them.
func openLoop(parent span, srv *serve.Server, ds *dataset.Dataset, nodes *popularNodes, rate float64, dur time.Duration) *loadResult {
	n := int(rate * dur.Seconds())
	res := &loadResult{rate: rate, lat: make([]time.Duration, n), outcome: make([]int8, n),
		late: make([]time.Duration, n), loss: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	slots := make(chan struct{}, serveCap)
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards res.problems
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = time.Since(due)
		v := nodes.next()
		select {
		case slots <- struct{}{}:
		default:
			res.outcome[i] = reqRefused
			continue
		}
		wg.Add(1)
		go func(i int, v graph.NodeID, due time.Time) {
			defer wg.Done()
			s := parent.child("serve.predict")
			out, err := srv.PredictContext(context.Background(), []graph.NodeID{v})
			s.end()
			res.lat[i] = time.Since(due)
			<-slots
			var msg string
			res.outcome[i], res.loss[i], msg = judge(out, err, v, ds)
			if msg != "" {
				mu.Lock()
				res.problems = append(res.problems, msg)
				mu.Unlock()
			}
		}(i, v, due)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// closedLoop keeps one request outstanding per client generator for
// dur: each client sends its next request when the previous one
// returns, so the server always has full batches queued. Latencies run
// from each send.
func closedLoop(parent span, srv *serve.Server, ds *dataset.Dataset, clients []*popularNodes, dur time.Duration) *loadResult {
	res := &loadResult{}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards res while clients merge their results
	)
	start := time.Now()
	for _, gen := range clients {
		wg.Add(1)
		go func(gen *popularNodes) {
			defer wg.Done()
			var mine loadResult
			for time.Since(start) < dur {
				v := gen.next()
				sent := time.Now()
				s := parent.child("serve.predict")
				out, err := srv.PredictContext(context.Background(), []graph.NodeID{v})
				s.end()
				o, loss, msg := judge(out, err, v, ds)
				mine.lat = append(mine.lat, time.Since(sent))
				mine.outcome = append(mine.outcome, o)
				mine.loss = append(mine.loss, loss)
				if msg != "" {
					mine.problems = append(mine.problems, msg)
				}
			}
			mu.Lock()
			res.merge(&mine)
			mu.Unlock()
		}(gen)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// merge appends o's requests to r and adds its wall time.
func (r *loadResult) merge(o *loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.outcome = append(r.outcome, o.outcome...)
	r.loss = append(r.loss, o.loss...)
	r.problems = append(r.problems, o.problems...)
	r.wall += o.wall
}

// judge classifies one answered request and returns its served loss
// and, for an error or an invalid answer, a description.
func judge(out []serve.Result, err error, v graph.NodeID, ds *dataset.Dataset) (int8, float64, string) {
	if err != nil {
		return reqError, 0, fmt.Sprintf("predict node %d: %v", v, err)
	}
	loss, msg := validate(out, v, ds)
	if msg != "" {
		return reqInvalid, 0, msg
	}
	return reqOK, loss, ""
}

// validate checks a served answer: one result for the requested node,
// a finite score per class, and a label equal to the scores' argmax
// (lowest index on ties). It returns the cross-entropy of the scores
// against the node's true label.
func validate(out []serve.Result, v graph.NodeID, ds *dataset.Dataset) (float64, string) {
	if len(out) != 1 || out[0].Node != v {
		return 0, fmt.Sprintf("node %d: got %d results", v, len(out))
	}
	r := out[0]
	if len(r.Scores) != ds.Classes {
		return 0, fmt.Sprintf("node %d: %d scores for %d classes", v, len(r.Scores), ds.Classes)
	}
	best := 0
	maxS := math.Inf(-1)
	for c, s := range r.Scores {
		f := float64(s)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Sprintf("node %d: score %d is %v", v, c, s)
		}
		if f > maxS {
			best, maxS = c, f
		}
	}
	if r.Label != best {
		return 0, fmt.Sprintf("node %d: label %d, argmax %d", v, r.Label, best)
	}
	var sum float64
	for _, s := range r.Scores {
		sum += math.Exp(float64(s) - maxS)
	}
	return maxS + math.Log(sum) - float64(r.Scores[ds.Labels[v]]), ""
}

// servePSZipf serves a papers-sim model to Zipf traffic from two
// inference workers.
func servePSZipf(b *bench) error {
	ds, err := buildDataset("PS", serveScale, b.seed)
	if err != nil {
		return err
	}
	model, snapPath, err := b.trainServingModel(ds)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Graph:         ds.Graph,
		Feats:         ds.Feats,
		Model:         model,
		Sampling:      sample.Config{Fanouts: fanouts},
		Platform:      hardware.WithDevices(hardware.SingleMachine8GPU(), 1, serveWorkers),
		Workers:       serveWorkers,
		MaxBatch:      serveMaxBatch,
		MaxDelay:      serveMaxDelay,
		QueueCap:      serveCap,
		CacheBytes:    serveCacheBytes(ds),
		Int8CacheFrac: psInt8,
		Seed:          b.seed,
	}
	var (
		srv    *serve.Server
		setups []time.Duration
	)
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	setupSpeeds := &speedLog{k: ref}
	for i := 0; i < serveSetupRepeats; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return err
			}
		}
		settle()
		setupSpeeds.mark(b.root)
		sp := b.root.child("setup")
		s := sp.child("serve.new")
		srv, err = serve.New(cfg)
		s.end()
		setups = append(setups, sp.end())
		if err != nil {
			return err
		}
	}
	setupSpeeds.mark(b.root) // closes the last set-up's segment
	defer srv.Close()        // on error paths; Close is idempotent

	nodes := newPopularNodes(ds.Graph, b.seed)
	clients := make([]*popularNodes, serveClients)
	for c := range clients {
		clients[c] = nodes.fork(int64(b.seed)<<16 + int64(c))
	}
	budget := func(share float64) time.Duration { return time.Duration(share * b.seconds * float64(time.Second)) }
	settle()
	heap := startHeapPeak()
	live := b.root.child("live")
	phase := func(name string, rate float64, dur time.Duration) *loadResult {
		s := live.child(name)
		defer s.end()
		return openLoop(s, srv, ds, nodes, rate, dur)
	}
	warm := phase("serve.warm", serveLowRate, budget(serveWarmShare))
	// Low: windows with the reference kernel timed before the first and
	// after each; a request's latency is scaled by its window's factor.
	lowSpan := live.child("serve.low")
	lowSpeeds := &speedLog{k: ref}
	lowSpeeds.mark(lowSpan)
	low := &loadResult{rate: serveLowRate}
	var lowScaled []float64
	for w := 0; w < serveLowWindows; w++ {
		win := openLoop(lowSpan, srv, ds, nodes, serveLowRate, budget(serveLowShare/serveLowWindows))
		lowSpeeds.mark(lowSpan)
		for i, o := range win.outcome {
			if o == reqOK {
				lowScaled = append(lowScaled, scaledLatency(win.lat[i], lowSpeeds.factor(w)))
			}
		}
		low.merge(win)
	}
	lowSpan.end()
	high := phase("serve.high", serveHighRate, budget(serveHighShare))
	snap := srv.Stats()
	// Saturation: closed-loop bursts, with the reference kernel timed
	// before the first and after each one. Capacity is all valid answers
	// over the bursts' wall time, each burst's time scaled by the two
	// timings around it. The host's speed flips within a burst's second,
	// so a median over bursts jumps between its states; the total moves
	// only with the share of time spent in each.
	sat := live.child("serve.saturation")
	full := &loadResult{}
	var speeds []float64
	var scaledWall float64
	timeRef := func() {
		sat.timed("serve.reference", func() { speeds = append(speeds, ref.settledSpeed()) })
	}
	timeRef()
	for i := 0; i < serveBursts; i++ {
		burst := closedLoop(sat, srv, ds, clients, budget(serveSaturationShare/serveBursts))
		full.merge(burst)
		timeRef()
		scaledWall += burst.wall.Seconds() / scaleFactor(speeds[i], speeds[i+1])
	}
	satSnap := srv.Stats()
	sat.end()
	capacity := float64(full.count(reqOK)) / scaledWall
	saturated := float64(full.count(reqOK)) / full.wall.Seconds()
	live.end()
	peak := heap.stopMiB()
	err = srv.Close()
	b.op(err == nil, "closing the server: %v", err)

	// Every answer is validated, warm-up included. The fixed rates stay
	// below the knee, so a refusal there is a failure; the closed loop is
	// never refused.
	for _, ph := range []*loadResult{warm, low, high, full} {
		for i, o := range ph.outcome {
			switch o {
			case reqOK:
				b.op(true, "")
			case reqRefused:
				b.op(false, "request %d at %g/s refused: %d outstanding", i, ph.rate, serveCap)
			}
		}
		for _, p := range ph.problems {
			b.check(false, "%s", p)
		}
	}

	highLat, lowLat, fullLat := high.okLatencies(), low.okLatencies(), full.okLatencies()
	var lossSum float64
	for i, o := range low.outcome {
		if o == reqOK {
			lossSum += low.loss[i]
		}
	}
	b.reportSetup(setups, setupSpeeds)
	b.e2e.set("seeds_per_s", "seeds/s", capacity)
	b.e2e.set("p50_ms", "ms", 1e3*quantile(lowScaled, 0.5))
	b.e2e.set("peak_heap_mb", "MiB", peak)
	b.e2e.set("loss", "nats", lossSum/float64(max(len(lowLat), 1)))

	b.extra.set("p50_ms.unscaled", "ms", 1e3*quantile(lowLat, 0.5))
	b.extra.set("serve_p90_ms.low", "ms", 1e3*quantile(lowLat, 0.9))
	b.extra.set("serve_p99_ms.low", "ms", 1e3*quantile(lowLat, 0.99))
	b.extra.set("serve_p50_ms.high", "ms", 1e3*quantile(highLat, 0.5))
	b.extra.set("serve_p90_ms.high", "ms", 1e3*quantile(highLat, 0.9))
	b.extra.set("serve_p99_ms.high", "ms", 1e3*quantile(highLat, 0.99))
	b.extra.set("serve_saturated_rps", "req/s", saturated)
	b.extra.set("serve.reference_speed", "1/s", median(speeds))
	b.extra.set("serve_p50_ms.saturated", "ms", 1e3*quantile(fullLat, 0.5))
	b.extra.set("serve_p99_ms.saturated", "ms", 1e3*quantile(fullLat, 0.99))
	b.extra.set("serve.requests.low", "count", float64(len(low.outcome)))
	b.extra.set("serve.requests.high", "count", float64(len(high.outcome)))
	b.extra.set("serve.generator_lateness_ms.p99", "ms", 1e3*quantile(seconds(high.late), 0.99))
	b.extra.set("serve.generator_lateness_ms.mean", "ms", 1e3*mean(seconds(high.late)))
	b.extra.set("serve.batch_seeds_mean", "seeds", snap.MeanBatchSeeds)
	if n := satSnap.Batches - snap.Batches; n > 0 {
		b.extra.set("serve.saturated_batch_seeds", "seeds", float64(satSnap.Seeds-snap.Seeds)/float64(n))
		b.extra.set("serve.saturated_batch_requests", "count", float64(satSnap.Requests-snap.Requests)/float64(n))
	}
	if b.tr == nil {
		return nil
	}
	b.layer.set("trace.seeds_per_s", "seeds/s", capacity)
	b.layer.set("cache.gpu_hit_ratio", "ratio", snap.CacheHitRate)
	host := snap.FeatureReads[cache.LocLocalCPU.String()] + snap.FeatureReads[cache.LocRemoteCPU.String()]
	b.layer.set("cache.host_rows_per_seed", "rows", float64(host)/float64(max(snap.Seeds, 1)))
	rdv, err := replayRendezvous(b.root)
	if err != nil {
		return err
	}
	b.layer.set("transport.rendezvous_s", "s", rdv.Seconds())
	if fi, err := os.Stat(snapPath); err == nil {
		b.layer.set("checkpoint.bytes", "bytes", float64(fi.Size()))
	}
	batch := int(math.Round(snap.MeanBatchSeeds))
	return b.replay(replayInputs{
		ds: ds, model: model, batch: max(batch, 1), platform: cfg.Platform,
		fabric: localFabric(cfg.Platform), codec: "",
	})
}

// scaledLatency scales a low-rate latency, in seconds, by a speedLog
// factor f. The batching delay is wall-clock time that the host's speed
// does not change, so only the part beyond it is divided by f: at
// 1000/s a batch closes when its oldest request has waited
// serveMaxDelay, and inference, queueing and wake-ups follow.
func scaledLatency(d time.Duration, f float64) float64 {
	return serveMaxDelay.Seconds() + (d-serveMaxDelay).Seconds()/f
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// trainServingModel produces the served model as a user would: one
// epoch of GDP training on the serving platform, a snapshot, and the
// snapshot's parameters read back into a fresh model. It is input
// generation, outside setup_s; a traced run reports its core, engine
// and checkpoint layers.
func (b *bench) trainServingModel(ds *dataset.Dataset) (*nn.Model, string, error) {
	task := newTask(ds, serveWorkers, psBatch, b.seed)
	task.Partition = partition.Range(ds.Graph, serveWorkers)
	sp := b.root.child("setup.model")
	defer sp.end()
	a, err := core.New(task)
	if err != nil {
		return nil, "", err
	}
	var e *engine.Engine
	var st engine.EpochStats
	prep := sp.timed("core.prepare", func() { err = a.Prepare() })
	if err != nil {
		return nil, "", err
	}
	plan := sp.timed("core.plan", func() { _, err = a.Plan() })
	if err != nil {
		return nil, "", err
	}
	build := sp.timed("core.build_engine", func() { e, err = a.BuildEngine(strategy.GDP) })
	if err != nil {
		return nil, "", err
	}
	alloc := b.allocated()
	epoch := sp.timed("engine.epoch", func() { st, err = e.RunEpochContext(context.Background()) })
	allocBytes := b.allocated() - alloc
	if !b.op(err == nil, "training the served model: %v", err) {
		return nil, "", err
	}
	path := filepath.Join(b.scratch, checkpoint.DefaultName)
	ckpt := sp.timed("checkpoint.write", func() { err = a.CheckpointFile(path) })
	if !b.op(err == nil, "snapshot of the served model: %v", err) {
		return nil, "", err
	}
	snap, err := checkpoint.ReadFile(path)
	if !b.check(err == nil, "read back the served model: %v", err) {
		return nil, "", err
	}
	m := newModel(ds)
	if err := m.LoadParams(bytes.NewReader(snap.Model)); err != nil {
		b.check(false, "load the served model: %v", err)
		return nil, "", err
	}
	if b.tr != nil {
		b.layer.set("core.prepare_s", "s", prep.Seconds())
		b.layer.set("core.plan_s", "s", plan.Seconds())
		b.layer.set("core.build_engine_s", "s", build.Seconds())
		b.engineLayers([]epochRec{{engine: epoch, allocBytes: allocBytes, stats: []engine.EpochStats{st}}})
		b.layer.set("checkpoint.write_ms", "ms", 1e3*ckpt.Seconds())
	}
	return m, path, nil
}
