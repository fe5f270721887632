package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Replay sizes: enough calls per layer that the medians repeat, few
// enough that the traced run stays within a few seconds of replay.
const (
	replayBatches = 24 // sampled mini-batches; nn and tensor reuse them
	replayOps     = 40 // allreduce and inference calls
	codecBlock    = 64 // codec calls per timed block
	codecBlocks   = 24
)

// fabric is what a collective replay runs on: one comm.Comm per rank
// (shared by every rank of an in-process world) over timed transports.
type fabric struct {
	comms []*comm.Comm
	wire  []*wireStats
}

func (f fabric) totals() wireTotals {
	var t wireTotals
	for _, w := range f.wire {
		x := w.totals()
		t.Send += x.Send
		t.RecvWait += x.RecvWait
		t.Frames += x.Frames
		t.Bytes += x.Bytes
	}
	return t
}

// localFabric is the in-process channel transport a single-process
// workload's engine uses, behind the timing decorator.
func localFabric(p *hardware.Platform) fabric {
	tr, ws := timeTransport(comm.NewChanTransport(p.NumDevices()))
	c := comm.NewWithTransport(device.NewGroup(p), tr)
	comms := make([]*comm.Comm, p.NumDevices())
	for r := range comms {
		comms[r] = c
	}
	return fabric{comms: comms, wire: []*wireStats{ws}}
}

// tcpFabric reuses the live TCP ranks; their transports are already
// decorated in a traced run.
func tcpFabric(p *hardware.Platform, ranks []*tcpRank) fabric {
	var f fabric
	for _, rk := range ranks {
		f.comms = append(f.comms, comm.NewWithTransport(device.NewGroup(p), rk.tr))
		f.wire = append(f.wire, rk.wire)
	}
	return f
}

// replayInputs are the workload's own inputs to each layer.
type replayInputs struct {
	ds       *dataset.Dataset
	model    *nn.Model // parameters are copied; the live model is not touched
	batch    int       // seeds per mini-batch
	platform *hardware.Platform
	fabric   fabric
	codec    string // gradient codec name, "" for fp32
}

// replay drives each layer's exported entry point with the workload's
// inputs and reports per-call times. Spans of the replay sit under a
// "replay" span, beside the live run's, so the gap between a layer's
// replayed time and engine.epoch_s is what the engine adds.
func (b *bench) replay(in replayInputs) error {
	rp := b.root.child("replay")
	defer rp.end()
	rng := graph.NewRNG(b.seed ^ 0x7e91a7)
	m := newModel(in.ds)
	var params bytes.Buffer
	if err := in.model.SaveParams(&params); err != nil {
		return err
	}
	if err := m.LoadParams(&params); err != nil {
		return err
	}

	// sample: Sampler.Sample on the workload's training seeds.
	smp := sample.NewSampler(in.ds.Graph, sample.Config{Fanouts: fanouts}, rng)
	mbs := make([]*sample.MiniBatch, replayBatches)
	var sampleT []time.Duration
	var edges int64
	for i := range mbs {
		seeds := pickSeeds(in.ds.TrainSeeds, in.batch, rng)
		sampleT = append(sampleT, rp.timed("sample.batch", func() { mbs[i] = smp.Sample(seeds) }))
		for _, blk := range mbs[i].Blocks {
			edges += blk.NumEdges()
		}
	}
	var sampleTotal time.Duration
	for _, d := range sampleT {
		sampleTotal += d
	}
	b.layer.set("sample.batch_ms", "ms", medianMs(sampleT))
	b.layer.set("sample.edges_per_s", "edges/s", float64(edges)/sampleTotal.Seconds())

	// nn: each layer's forward and backward as the engine calls them
	// (layer 0 reads features through the gather-fused path), then the
	// optimizer step.
	layers := len(m.Layers)
	fwd := make([][]time.Duration, layers)
	bwd := make([][]time.Duration, layers)
	var optT []time.Duration
	opt := nn.NewAdam(lr)
	feats := tensor.FS(in.ds.Feats)
	for _, mb := range mbs {
		ctxs := make([]nn.LayerCtx, layers)
		var h *tensor.Matrix
		for l, layer := range m.Layers {
			blk := mb.Blocks[l]
			fwd[l] = append(fwd[l], rp.timed(fmt.Sprintf("nn.fwd.l%d", l), func() {
				if gl, ok := layer.(nn.GatherLayer); ok && l == 0 {
					h, ctxs[l] = gl.ForwardGathered(blk, feats, blk.Src)
				} else {
					h, ctxs[l] = layer.Forward(blk, h)
				}
			}))
		}
		labels := make([]int32, len(mb.Seeds))
		for i, s := range mb.Seeds {
			labels[i] = in.ds.Labels[s]
		}
		_, d := nn.SoftmaxCrossEntropy(h, labels, len(mb.Seeds))
		for l := layers - 1; l >= 0; l-- {
			layer, blk := m.Layers[l], mb.Blocks[l]
			bwd[l] = append(bwd[l], rp.timed(fmt.Sprintf("nn.bwd.l%d", l), func() {
				if gl, ok := layer.(nn.GatherLayer); ok && l == 0 {
					gl.BackwardParams(blk, ctxs[l], d)
				} else {
					d = layer.Backward(blk, ctxs[l], d)
				}
			}))
		}
		optT = append(optT, rp.timed("nn.optim", func() { opt.Step(m.Params()) }))
		m.ZeroGrad()
	}
	for l := 0; l < layers; l++ {
		b.layer.set(fmt.Sprintf("nn.fwd_ms.l%d", l), "ms", medianMs(fwd[l]))
		b.layer.set(fmt.Sprintf("nn.bwd_ms.l%d", l), "ms", medianMs(bwd[l]))
	}
	b.layer.set("nn.optim_ms", "ms", medianMs(optT))

	// tensor: the three kernels that dominate layer 0 at its shapes —
	// the gathered projection, its weight-gradient accumulation, and
	// the mean aggregation over sampled edges.
	sage, ok := m.Layers[0].(*nn.SAGELayer)
	if !ok {
		return fmt.Errorf("layer 0 is %T, not GraphSAGE", m.Layers[0])
	}
	w := sage.W.W
	var gmm, tacc, seg []time.Duration
	dW := tensor.New(w.Rows, w.Cols)
	for _, mb := range mbs {
		blk := mb.Blocks[0]
		x := tensor.Get(len(blk.Src), w.Rows)
		tensor.GatherInto(x, in.ds.Feats, blk.Src)
		var z *tensor.Matrix
		gmm = append(gmm, rp.timed("tensor.gather_matmul", func() { z = tensor.GatherMatMul(in.ds.Feats, blk.Src, w) }))
		tacc = append(tacc, rp.timed("tensor.tmatmul_acc", func() { tensor.TMatMulAcc(dW, x, z) }))
		seg = append(seg, rp.timed("tensor.segment_agg", func() {
			tensor.Put(tensor.SegmentAggFused(blk.EdgePtr, blk.SrcIdx, z, true, false))
		}))
		tensor.Put(z)
		tensor.Put(x)
	}
	b.layer.set("tensor.gather_matmul_ms", "ms", medianMs(gmm))
	b.layer.set("tensor.tmatmul_acc_ms", "ms", medianMs(tacc))
	b.layer.set("tensor.segment_agg_ms", "ms", medianMs(seg))

	if err := b.replayAllReduce(rp, in, m.NumParamElements()); err != nil {
		return err
	}
	b.replayCodec(rp, m.NumParamElements())
	return b.replayInfer(rp, in, m, rng)
}

// pickSeeds draws a batch of training seeds uniformly, with replacement.
func pickSeeds(pool []graph.NodeID, n int, rng *graph.RNG) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// replayAllReduce runs RingAllReduceData over the model's gradient
// size with the workload's codec on its fabric, all ranks in lockstep.
func (b *bench) replayAllReduce(rp span, in replayInputs, elems int) error {
	codec, err := transport.ChunkCodecByName(in.codec)
	if err != nil {
		return err
	}
	world := len(in.fabric.comms)
	data := make([][]float32, world)
	for r := range data {
		data[r] = make([]float32, elems)
		for i := range data[r] {
			data[r][i] = float32((r+1)*(i%97)) * 1e-3
		}
	}
	ring := func(ops int, times *[]time.Duration) error {
		return onRanks(world, func(r int) error {
			for i := 0; i < ops; i++ {
				s := rp.child("comm.allreduce")
				in.fabric.comms[r].RingAllReduceData(r, data[r], codec)
				if d := s.end(); r == 0 && times != nil {
					*times = append(*times, d)
				}
			}
			return nil
		})
	}
	if err := ring(2, nil); err != nil { // warm the ring buffers
		return err
	}
	before := in.fabric.totals()
	var times []time.Duration
	if err := ring(replayOps, &times); err != nil {
		return err
	}
	w := in.fabric.totals().sub(before)
	ops := float64(replayOps)
	b.layer.set("comm.allreduce_ms", "ms", medianMs(times))
	b.layer.set("comm.allreduce_wire_bytes", "bytes", float64(w.Bytes)/ops)
	b.layer.set("transport.send_ms", "ms", 1e3*w.Send.Seconds()/ops)
	b.layer.set("transport.recv_wait_ms", "ms", 1e3*w.RecvWait.Seconds()/ops)
	b.layer.set("transport.frames", "count", float64(w.Frames)/ops)
	b.layer.set("transport.bytes", "bytes", float64(w.Bytes)/ops)
	return nil
}

// replayCodec times the fp16 gradient codec on a gradient-sized
// vector, in blocks of calls so each timing spans well over a clock
// tick.
func (b *bench) replayCodec(rp span, elems int) {
	var fp16 transport.FP16Chunk
	src := make([]float32, elems)
	for i := range src {
		src[i] = float32(i%251)*0.37 - 40
	}
	enc := make([]byte, fp16.EncodedLen(elems))
	dst := make([]float32, elems)
	var encT, decT []float64
	for k := 0; k < codecBlocks; k++ {
		d := rp.timed("transport.fp16_encode", func() {
			for i := 0; i < codecBlock; i++ {
				fp16.EncodeChunk(enc, src)
			}
		})
		encT = append(encT, d.Seconds()/codecBlock)
		var err error
		d = rp.timed("transport.fp16_decode", func() {
			for i := 0; i < codecBlock && err == nil; i++ {
				err = fp16.DecodeChunk(dst, enc)
			}
		})
		b.check(err == nil, "fp16 decode: %v", err)
		decT = append(decT, d.Seconds()/codecBlock)
	}
	mb := 4 * float64(elems) / 1e6
	b.layer.set("transport.fp16_encode_mb_s", "MB/s", mb/median(encT))
	b.layer.set("transport.fp16_decode_mb_s", "MB/s", mb/median(decT))
}

// replayInfer times InferWorker.Infer, the serving layer's per-batch
// call, on the workload's graph and model at its batch size.
func (b *bench) replayInfer(rp span, in replayInputs, m *nn.Model, rng *graph.RNG) error {
	inf, err := engine.NewInferencer(engine.InferConfig{
		Platform: in.platform, Graph: in.ds.Graph, Store: replayStore(in.platform, in.ds), Model: m,
		Sampling: sample.Config{Fanouts: fanouts}, Workers: 1, Seed: b.seed,
	})
	if err != nil {
		return err
	}
	w := inf.Worker(0)
	var times []time.Duration
	for i := 0; i < replayOps; i++ {
		seeds := pickSeeds(in.ds.TrainSeeds, in.batch, rng)
		var out *tensor.Matrix
		times = append(times, rp.timed("serve.infer", func() { out, _ = w.Infer(seeds) }))
		tensor.Put(out)
	}
	b.layer.set("serve.infer_ms", "ms", medianMs(times))
	return nil
}

// replayRendezvous bootstraps and closes a two-rank loopback TCP group,
// for workloads whose own run has no wire.
func replayRendezvous(parent span) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	trs := make([]*transport.TCP, 2)
	s := parent.child("transport.rendezvous")
	err = onRanks(2, func(r int) error {
		opts := transport.TCPOptions{Rank: r, World: 2, Coord: ln.Addr().String()}
		if r == 0 {
			opts.CoordListener = ln
		}
		var err error
		trs[r], err = transport.NewTCP(opts)
		return err
	})
	d := s.end()
	if err != nil {
		ln.Close()
		return 0, err
	}
	return d, closeRanks([]*tcpRank{{tcp: trs[0]}, {tcp: trs[1]}})
}
