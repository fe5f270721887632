package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// Workload sizes, calibrated on a 2-core host so that a run's set-up
// repeats and its timed phase fit the budget with room to spare.
const (
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 3

	psScale   = 0.25 // papers-sim: 55k nodes, 4.4k training seeds
	psDevices = 4
	psBatch   = 128
	psInt8    = 0.5 // int8 warm-tier share of the cache budget
	// psLossEpoch is the epoch whose mean loss is reported: a fixed
	// amount of training, however many epochs the budget allows.
	psLossEpoch = 4

	fsScale     = 0.5 // friendster-sim: 65k nodes, 256-wide features
	fsWorld     = 2
	fsBatch     = 64
	fsCodec     = "fp16"
	fsLossEpoch = 3

	hidden    = 32
	lr        = 0.01
	cacheFrac = 0.08 // per-device feature cache, as a share of all features
)

// fanouts is the two-layer GraphSAGE sampling of every workload.
var fanouts = []int{10, 10}

func buildDataset(abbr string, scale float64, seed uint64) (*dataset.Dataset, error) {
	spec, err := dataset.ByAbbr(abbr, scale)
	if err != nil {
		return nil, err
	}
	spec.HomophilyDegree = 6
	spec.Seed = seed
	return dataset.Build(spec, true), nil
}

func newModel(ds *dataset.Dataset) *nn.Model {
	return nn.NewGraphSAGE(ds.FeatDim, hidden, ds.Classes, len(fanouts))
}

// newTask is the training task shared by the train workloads. Every
// optimizer is a stepClock, so a run can read its step times.
func newTask(ds *dataset.Dataset, devices, batch int, seed uint64) core.Task {
	return core.Task{
		Graph:        ds.Graph,
		Feats:        ds.Feats,
		Labels:       ds.Labels,
		FeatDim:      ds.FeatDim,
		Seeds:        ds.TrainSeeds,
		NewModel:     func() *nn.Model { return newModel(ds) },
		NewOptimizer: func() nn.Optimizer { return &stepClock{StatefulOptimizer: nn.NewAdam(lr)} },
		Sampling:     sample.Config{Fanouts: fanouts},
		BatchSize:    batch,
		Platform:     hardware.WithDevices(hardware.SingleMachine8GPU(), 1, devices),
		CacheBytes:   ds.CacheBytesFraction(cacheFrac),
		Seed:         seed,
	}
}

// stepClock is an optimizer decorator that stamps the wall time at
// the end of every Step. A worker steps once per mini-batch, so the
// gaps between stamps are the worker's step times.
type stepClock struct {
	nn.StatefulOptimizer
	at []time.Time
}

func (o *stepClock) Step(params []*nn.Param) {
	o.StatefulOptimizer.Step(params)
	o.at = append(o.at, time.Now())
}

// stepTimes returns the step times of the steps that ended between
// from and to: the first from from, each later one from the step
// before it.
func (o *stepClock) stepTimes(from, to time.Time) []time.Duration {
	var out []time.Duration
	prev := from
	for _, t := range o.at {
		if t.Before(from) || t.After(to) {
			continue
		}
		out = append(out, t.Sub(prev))
		prev = t
	}
	return out
}

func clockOf(e *engine.Engine, dev int) (*stepClock, error) {
	c, ok := e.Optimizer(dev).(*stepClock)
	if !ok {
		return nil, fmt.Errorf("device %d optimizer is %T, not the benchmark's step clock", dev, e.Optimizer(dev))
	}
	return c, nil
}

// epochRec is one timed epoch of a train workload.
type epochRec struct {
	from, to           time.Time // wall interval of the epoch
	seg                int       // its speedLog segment
	wall, engine, ckpt time.Duration
	allocBytes         uint64
	stats              []engine.EpochStats // one per rank
}

func (r epochRec) seeds() int64 {
	var n int64
	for _, st := range r.stats {
		n += st.Totals.SeedsProcessed
	}
	return n
}

// loss is the global mean mini-batch loss: each rank's MeanLoss holds
// its share of the globally scaled loss.
func (r epochRec) loss() float64 {
	var l float64
	for _, st := range r.stats {
		l += st.MeanLoss
	}
	return l
}

// trainReport turns the timed epochs into the end-to-end metrics, and
// in a traced run the engine, cache and checkpoint metrics. Epoch
// rates and step times are scaled to the reference speed by their
// epoch's speedLog segment; the unscaled figures are printed beside
// them.
func (b *bench) trainReport(eps []epochRec, lossEpoch int, clock *stepClock, speeds *speedLog, peakMiB float64) {
	var stepS, rawStepS []float64
	var seeds int64
	var wall, scaledWall float64
	for _, ep := range eps[1:] { // eps[0] is the warm-up epoch
		f := speeds.factor(ep.seg)
		seeds += ep.seeds()
		wall += ep.wall.Seconds()
		scaledWall += ep.wall.Seconds() / f
		for _, d := range clock.stepTimes(ep.from, ep.to) {
			stepS = append(stepS, d.Seconds()/f)
			rawStepS = append(rawStepS, d.Seconds())
		}
	}
	b.e2e.set("seeds_per_s", "seeds/s", float64(seeds)/scaledWall)
	b.e2e.set("p50_ms", "ms", 1e3*quantile(stepS, 0.5))
	b.extra.set("step_p90_ms", "ms", 1e3*quantile(stepS, 0.9))
	b.e2e.set("peak_heap_mb", "MiB", peakMiB)
	b.e2e.set("loss", "nats", eps[lossEpoch-1].loss())

	b.extra.set("seeds_per_s.unscaled", "seeds/s", float64(seeds)/wall)
	b.extra.set("p50_ms.unscaled", "ms", 1e3*quantile(rawStepS, 0.5))
	b.extra.set("reference_speed", "1/s", median(speeds.speeds))
	b.extra.set("epochs_timed", "count", float64(len(eps)-1))
	b.extra.set("steps_timed", "count", float64(len(stepS)))
	if b.tr == nil {
		return
	}
	b.layer.set("trace.seeds_per_s", "seeds/s", float64(seeds)/scaledWall)
	tot := b.engineLayers(eps[1:])
	hit, host := cacheRatios(tot.Load)
	b.layer.set("cache.gpu_hit_ratio", "ratio", hit)
	b.layer.set("cache.host_rows_per_seed", "rows", host/float64(max(tot.SeedsProcessed, 1)))
}

// engineLayers reports the engine's wall time, allocation and
// per-epoch counts over eps, and returns the summed counters.
func (b *bench) engineLayers(eps []epochRec) engine.WorkerStats {
	var tot engine.WorkerStats
	var engineS, allocMB []float64
	var batches int
	for _, ep := range eps {
		engineS = append(engineS, ep.engine.Seconds())
		allocMB = append(allocMB, float64(ep.allocBytes)/(1<<20))
		for _, st := range ep.stats {
			tot = addStats(tot, st.Totals)
		}
		batches += ep.stats[0].NumBatches
	}
	n := float64(len(eps))
	b.layer.set("engine.epoch_s", "s", median(engineS))
	b.layer.set("engine.alloc_mb_per_epoch", "MiB", median(allocMB))
	b.layer.set("engine.batches", "count", float64(batches)/n)
	b.layer.set("engine.sampled_edges", "count", float64(tot.SampledEdges)/n)
	b.layer.set("engine.graph_shuffle_bytes", "bytes", float64(tot.GraphShuffleBytes())/n)
	b.layer.set("engine.hidden_shuffle_bytes", "bytes", float64(tot.HiddenShuffleBytes())/n)
	b.layer.set("engine.collective_calls", "count",
		float64(tot.BuildA2ACalls+tot.BuildBcastCalls+tot.ShufA2ACalls+tot.ShufBcastCalls)/n)
	return tot
}

// addStats sums the counters the report reads.
func addStats(a, o engine.WorkerStats) engine.WorkerStats {
	a.Load.Add(o.Load)
	a.GraphA2ABytes += o.GraphA2ABytes
	a.GraphBcastBytes += o.GraphBcastBytes
	a.HiddenA2ABytes += o.HiddenA2ABytes
	a.HiddenBcastBytes += o.HiddenBcastBytes
	a.BuildA2ACalls += o.BuildA2ACalls
	a.BuildBcastCalls += o.BuildBcastCalls
	a.ShufA2ACalls += o.ShufA2ACalls
	a.ShufBcastCalls += o.ShufBcastCalls
	a.SampledEdges += o.SampledEdges
	a.SeedsProcessed += o.SeedsProcessed
	return a
}

// cacheRatios returns the share of feature rows read from a local
// device cache (fp32 or int8 tier) and the number read from host
// memory.
func cacheRatios(ld cache.LoadStats) (gpuHit, hostRows float64) {
	var all int64
	for _, n := range ld.Nodes {
		all += n
	}
	if all == 0 {
		return 0, 0
	}
	gpu := ld.Nodes[cache.LocGPU] + ld.Nodes[cache.LocGPUQ]
	host := ld.Nodes[cache.LocLocalCPU] + ld.Nodes[cache.LocRemoteCPU]
	return float64(gpu) / float64(all), float64(host)
}

// allocated returns the cumulative heap allocation in a traced run and
// 0 otherwise (ReadMemStats stops the world, so untraced runs skip it).
func (b *bench) allocated() uint64 {
	if b.tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// trainPSLocal is the cache-friendly case: papers-sim on 4 simulated
// devices in one process, the planner picks the strategy, int8 warm
// tier on, and a snapshot is written after every epoch.
func trainPSLocal(b *bench) error {
	ds, err := buildDataset("PS", psScale, b.seed)
	if err != nil {
		return err
	}
	task := newTask(ds, psDevices, psBatch, b.seed)
	task.Int8CacheFrac = psInt8

	var (
		a                  *core.APT
		e                  *engine.Engine
		kind               strategy.Kind
		setups, prep, plan []time.Duration
		build              []time.Duration
	)
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	setupSpeeds := &speedLog{k: ref}
	for i := 0; i < setupRepeats; i++ {
		a, e = nil, nil
		settle()
		setupSpeeds.mark(b.root)
		sp := b.root.child("setup")
		if a, err = core.New(task); err != nil {
			return err
		}
		prep = append(prep, sp.timed("core.prepare", func() { err = a.Prepare() }))
		if err != nil {
			return err
		}
		plan = append(plan, sp.timed("core.plan", func() { kind, err = a.Plan() }))
		if err != nil {
			return err
		}
		build = append(build, sp.timed("core.build_engine", func() { e, err = a.BuildEngine(kind) }))
		if err != nil {
			return err
		}
		setups = append(setups, sp.end())
	}
	setupSpeeds.mark(b.root) // closes the last set-up's segment
	b.reportSetup(setups, setupSpeeds)
	fmt.Printf("# planned strategy %v\n", kind)
	clock, err := clockOf(e, 0)
	if err != nil {
		return err
	}
	snapPath := filepath.Join(b.scratch, checkpoint.DefaultName)

	speeds := &speedLog{k: ref}
	settle()
	heap := startHeapPeak()
	live := b.root.child("live")
	var (
		eps       []epochRec
		timedFrom time.Time
	)
	for len(eps) < psLossEpoch || time.Since(timedFrom).Seconds() < b.seconds {
		if len(eps) == 1 || (len(eps) > 1 && speeds.due()) {
			speeds.mark(live)
		}
		if len(eps) == 1 {
			timedFrom = time.Now() // the first epoch is warm-up
		}
		rec := epochRec{from: time.Now(), seg: speeds.segment()}
		ep := live.child("live.epoch")
		var st engine.EpochStats
		alloc := b.allocated()
		rec.engine = ep.timed("engine.epoch", func() { st, err = e.RunEpochContext(context.Background()) })
		rec.allocBytes = b.allocated() - alloc
		if !b.op(err == nil, "epoch %d: %v", len(eps)+1, err) {
			break
		}
		rec.stats = []engine.EpochStats{st}
		b.check(!math.IsNaN(st.MeanLoss) && !math.IsInf(st.MeanLoss, 0), "epoch %d loss %v", len(eps)+1, st.MeanLoss)
		rec.ckpt = ep.timed("checkpoint.write", func() { err = a.CheckpointFile(snapPath) })
		b.op(err == nil, "epoch %d checkpoint: %v", len(eps)+1, err)
		rec.wall = ep.end()
		rec.to = time.Now()
		eps = append(eps, rec)
	}
	speeds.mark(live) // closes the last segment
	live.end()
	peak := heap.stopMiB()
	if len(eps) < psLossEpoch {
		return fmt.Errorf("training stopped after %d epochs", len(eps))
	}

	// The last snapshot must read back CRC-clean and hold exactly the
	// live model's parameters.
	snap, err := checkpoint.ReadFile(snapPath)
	if b.check(err == nil, "read back snapshot: %v", err) {
		var live bytes.Buffer
		err := e.Model(0).SaveParams(&live)
		b.check(err == nil && bytes.Equal(live.Bytes(), snap.Model),
			"snapshot parameters differ from the live model (%v)", err)
		b.check(snap.EpochsDone == len(eps), "snapshot records %d epochs, ran %d", snap.EpochsDone, len(eps))
	}
	b.trainReport(eps, psLossEpoch, clock, speeds, peak)
	if b.tr == nil {
		return nil
	}
	b.layer.set("core.prepare_s", "s", median(seconds(prep)))
	b.layer.set("core.plan_s", "s", median(seconds(plan)))
	b.layer.set("core.build_engine_s", "s", median(seconds(build)))
	var ckptMs []float64
	for _, ep := range eps[1:] {
		ckptMs = append(ckptMs, 1e3*ep.ckpt.Seconds())
	}
	b.layer.set("checkpoint.write_ms", "ms", median(ckptMs))
	if fi, err := os.Stat(snapPath); err == nil {
		b.layer.set("checkpoint.bytes", "bytes", float64(fi.Size()))
	}
	rdv, err := replayRendezvous(b.root)
	if err != nil {
		return err
	}
	b.layer.set("transport.rendezvous_s", "s", rdv.Seconds())
	return b.replay(replayInputs{
		ds: ds, model: e.Model(0), batch: psBatch, platform: task.Platform,
		fabric: localFabric(task.Platform), codec: "",
	})
}

// tcpRank is one rank of the loopback TCP job.
type tcpRank struct {
	a    *core.APT
	e    *engine.Engine
	tcp  *transport.TCP
	tr   comm.Transport // tcp, or the timing decorator around it
	wire *wireStats     // nil when untraced
}

// setupTCP bootstraps a world of fsWorld ranks over loopback TCP, each
// a goroutine with its own APT, and builds every rank's engine. It
// returns the ranks and each phase's slowest-rank time.
func (b *bench) setupTCP(sp span, task core.Task) (ranks []*tcpRank, rdv, prep, build time.Duration, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, 0, err
	}
	ranks = make([]*tcpRank, fsWorld)
	errs := make([]error, fsWorld)
	times := make([][3]time.Duration, fsWorld)
	var wg sync.WaitGroup
	for r := 0; r < fsWorld; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := &tcpRank{}
			ranks[r] = rk
			rs := sp.child(fmt.Sprintf("rank%d", r))
			defer rs.end()
			opts := transport.TCPOptions{Rank: r, World: fsWorld, Coord: ln.Addr().String()}
			if r == 0 {
				opts.CoordListener = ln
			}
			var err error
			times[r][0] = rs.timed("transport.rendezvous", func() { rk.tcp, err = transport.NewTCP(opts) })
			if err != nil {
				errs[r] = err
				return
			}
			rk.tr = rk.tcp
			if b.tr != nil {
				rk.tr, rk.wire = timeTransport(rk.tcp)
			}
			if rk.a, err = core.New(task); err != nil {
				errs[r] = err
				return
			}
			times[r][1] = rs.timed("core.prepare", func() { err = rk.a.Prepare() })
			if err != nil {
				errs[r] = err
				return
			}
			times[r][2] = rs.timed("core.build_engine", func() {
				rk.e, err = rk.a.BuildEngineDistributed(strategy.SNP, rk.tr, r)
			})
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r := range ranks {
		if errs[r] != nil {
			closeRanks(ranks)
			return nil, 0, 0, 0, fmt.Errorf("rank %d set-up: %w", r, errs[r])
		}
		rdv = max(rdv, times[r][0])
		prep = max(prep, times[r][1])
		build = max(build, times[r][2])
	}
	return ranks, rdv, prep, build, nil
}

// closeRanks closes every rank's transport concurrently (each Close
// flushes its outboxes to the peers) and returns the first error.
func closeRanks(ranks []*tcpRank) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for r, rk := range ranks {
		if rk == nil || rk.tcp == nil {
			continue
		}
		wg.Add(1)
		go func(r int, rk *tcpRank) {
			defer wg.Done()
			errs[r] = rk.tcp.Close()
		}(r, rk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// onRanks runs fn for every rank concurrently, as a multi-process job
// runs its ranks, and returns the first error.
func onRanks(n int, fn func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// paramChecksum is FNV-64a over every parameter's float32 bits in
// layer order, the checksum aptworker prints per rank.
func paramChecksum(m *nn.Model) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// trainFSTCP2 is the shuffle-bound case: friendster-sim split over two
// ranks joined by loopback TCP, SNP pinned so every step crosses the
// wire, fp16 gradient codec.
func trainFSTCP2(b *bench) error {
	ds, err := buildDataset("FS", fsScale, b.seed)
	if err != nil {
		return err
	}
	task := newTask(ds, fsWorld, fsBatch, b.seed)
	task.GradCompress = fsCodec

	var (
		ranks                   []*tcpRank
		setups, rdvs, prep, bld []time.Duration
	)
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	setupSpeeds := &speedLog{k: ref}
	for i := 0; i < setupRepeats; i++ {
		if err := closeRanks(ranks); err != nil {
			return err
		}
		ranks = nil
		settle()
		setupSpeeds.mark(b.root)
		sp := b.root.child("setup")
		rs, rdv, p, bl, err := b.setupTCP(sp, task)
		if err != nil {
			return err
		}
		setups = append(setups, sp.end())
		ranks, rdvs, prep, bld = rs, append(rdvs, rdv), append(prep, p), append(bld, bl)
	}
	setupSpeeds.mark(b.root) // closes the last set-up's segment
	b.reportSetup(setups, setupSpeeds)
	defer closeRanks(ranks)
	clock, err := clockOf(ranks[0].e, 0)
	if err != nil {
		return err
	}

	speeds := &speedLog{k: ref}
	settle()
	heap := startHeapPeak()
	live := b.root.child("live")
	var (
		eps       []epochRec
		timedFrom time.Time
		wire0     []wireTotals
	)
	for len(eps) < fsLossEpoch || time.Since(timedFrom).Seconds() < b.seconds {
		if len(eps) == 1 || (len(eps) > 1 && speeds.due()) {
			speeds.mark(live)
		}
		if len(eps) == 1 {
			timedFrom = time.Now()
			for _, rk := range ranks {
				if rk.wire != nil {
					wire0 = append(wire0, rk.wire.totals())
				}
			}
		}
		rec := epochRec{from: time.Now(), seg: speeds.segment(), stats: make([]engine.EpochStats, fsWorld)}
		ep := live.child("live.epoch")
		alloc := b.allocated()
		err = onRanks(fsWorld, func(r int) error {
			s := ep.child("engine.epoch")
			defer s.end()
			var err error
			rec.stats[r], err = ranks[r].e.RunEpochContext(context.Background())
			return err
		})
		rec.allocBytes = b.allocated() - alloc
		rec.wall = ep.end()
		rec.to = time.Now()
		rec.engine = rec.wall
		if !b.op(err == nil, "epoch %d: %v", len(eps)+1, err) {
			break
		}
		b.check(!math.IsNaN(rec.loss()) && !math.IsInf(rec.loss(), 0), "epoch %d loss %v", len(eps)+1, rec.loss())
		eps = append(eps, rec)
	}
	speeds.mark(live) // closes the last segment
	live.end()
	peak := heap.stopMiB()
	if len(eps) < fsLossEpoch {
		return fmt.Errorf("training stopped after %d epochs", len(eps))
	}

	// The replicas must agree bit for bit, as aptworker's ranks must.
	sums := []uint64{paramChecksum(ranks[0].e.Model(0)), paramChecksum(ranks[1].e.Model(1))}
	b.check(sums[0] == sums[1], "rank parameter checksums differ: %016x vs %016x", sums[0], sums[1])
	fmt.Printf("# params fnv64a %016x\n", sums[0])
	// Snapshot building is collective; rank 0 persists it. It is timed
	// here, after the timed phase, because this workload trains without
	// per-epoch snapshots.
	snapPath := filepath.Join(b.scratch, checkpoint.DefaultName)
	var ckpt time.Duration
	err = onRanks(fsWorld, func(r int) error {
		s := b.root.child("checkpoint.write")
		snap, err := ranks[r].a.Snapshot()
		if err == nil && r == 0 {
			err = snap.WriteFile(snapPath)
		}
		if d := s.end(); r == 0 {
			ckpt = d
		}
		return err
	})
	if b.check(err == nil, "snapshot: %v", err) {
		snap, err := checkpoint.ReadFile(snapPath)
		if b.check(err == nil, "read back snapshot: %v", err) {
			var live bytes.Buffer
			err := ranks[0].e.Model(0).SaveParams(&live)
			b.check(err == nil && bytes.Equal(live.Bytes(), snap.Model), "snapshot parameters differ from rank 0 (%v)", err)
		}
	}

	b.trainReport(eps, fsLossEpoch, clock, speeds, peak)
	if b.tr != nil {
		for i, rk := range ranks {
			w := rk.wire.totals().sub(wire0[i])
			n := float64(len(eps) - 1)
			b.extra.set(fmt.Sprintf("live.transport.send_s_per_epoch.r%d", i), "s", w.Send.Seconds()/n)
			b.extra.set(fmt.Sprintf("live.transport.recv_wait_s_per_epoch.r%d", i), "s", w.RecvWait.Seconds()/n)
			b.extra.set(fmt.Sprintf("live.transport.frames_per_epoch.r%d", i), "count", float64(w.Frames)/n)
			b.extra.set(fmt.Sprintf("live.transport.bytes_per_epoch.r%d", i), "bytes", float64(w.Bytes)/n)
		}
		b.layer.set("core.prepare_s", "s", median(seconds(prep)))
		b.layer.set("core.build_engine_s", "s", median(seconds(bld)))
		b.layer.set("transport.rendezvous_s", "s", median(seconds(rdvs)))
		b.layer.set("checkpoint.write_ms", "ms", 1e3*ckpt.Seconds())
		if fi, err := os.Stat(snapPath); err == nil {
			b.layer.set("checkpoint.bytes", "bytes", float64(fi.Size()))
		}
		// The workload pins its strategy; core.plan_s is the planner's
		// cost on the same task, run on a separate APT so the live
		// engine's cache layout is unchanged.
		pa, err := core.New(task)
		if err != nil {
			return err
		}
		plan := b.root.timed("core.plan", func() { _, err = pa.Plan() })
		if err != nil {
			return err
		}
		b.layer.set("core.plan_s", "s", plan.Seconds())
		err = b.replay(replayInputs{
			ds: ds, model: ranks[0].e.Model(0), batch: fsBatch, platform: task.Platform,
			fabric: tcpFabric(task.Platform, ranks), codec: fsCodec,
		})
		if err != nil {
			return err
		}
	}
	err = closeRanks(ranks)
	b.op(err == nil, "closing the transports: %v", err)
	return nil
}
