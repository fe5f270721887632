package fullgraph

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// RunEpoch performs one full-graph pass (forward over every node, loss
// on the train nodes, backward, synchronized model update).
func (t *Trainer) RunEpoch() EpochStats {
	t.Group.ResetClocks()
	n := t.cfg.Platform.NumDevices()
	var mu sync.Mutex
	var stats EpochStats
	comm.RunParallel(n, func(dev int) {
		st := t.deviceEpoch(dev)
		mu.Lock()
		stats.HaloBytes += st.HaloBytes
		stats.Loss += st.Loss
		if st.ActivationBytes > stats.ActivationBytes {
			stats.ActivationBytes = st.ActivationBytes
		}
		mu.Unlock()
	})
	mx := t.Group.StageMax(device.StageTrain, device.StageShuffle)
	stats.ComputeSec = mx[device.StageTrain]
	stats.HaloSec = mx[device.StageShuffle]
	stats.OOM = t.Group.AnyOOM()
	return stats
}

func (t *Trainer) real() bool { return t.cfg.Mode == engine.Real }

// deviceEpoch runs one device through the pass.
func (t *Trainer) deviceEpoch(dev int) EpochStats {
	var st EpochStats
	p := t.parts[dev]
	model := t.models[dev]
	d := t.Group.Devices[dev]

	// Activation footprint: each layer materializes embeddings for all
	// sources of the partition — the memory wall of full-graph training.
	var peak int64
	dims := make([]int, len(model.Layers)+1)
	dims[0] = model.Layers[0].InDim()
	for l, layer := range model.Layers {
		dims[l+1] = layer.OutDim()
		footprint := int64(p.block.NumSrc()) * int64(dims[l]) * 4
		if footprint > peak {
			peak = footprint
		}
	}
	st.ActivationBytes = peak
	d.Alloc(peak)
	defer d.Free(peak)

	// Layer 0 reads its own rows straight out of the master feature
	// matrix through p.own (no gathered copy); upper layers pass the
	// previous layer's dense output.
	var h *tensor.Matrix
	ctxs := make([]nn.LayerCtx, len(model.Layers))
	for l, layer := range model.Layers {
		src, idx := h, []graph.NodeID(nil)
		if l == 0 && t.real() {
			src, idx = t.cfg.Feats, p.own
		}
		xsrc, bytes := t.haloExchangeForward(dev, src, idx, layer.InDim())
		st.HaloBytes += bytes
		t.chargeLayer(d, layer, p, false)
		if t.real() {
			out, ctx := layer.Forward(p.block, xsrc)
			ctxs[l] = ctx
			h = out
		}
	}

	// Loss over the device's train nodes, scaled by the global count.
	var dH *tensor.Matrix
	if t.real() {
		classes := model.Layers[len(model.Layers)-1].OutDim()
		logits := tensor.New(len(p.trainLocal), classes)
		labels := make([]int32, len(p.trainLocal))
		for i, pos := range p.trainLocal {
			copy(logits.Row(i), h.Row(int(pos)))
			labels[i] = t.cfg.Labels[p.trainIDs[i]]
		}
		loss, dLogits := nn.SoftmaxCrossEntropy(logits, labels, len(t.cfg.TrainNodes))
		st.Loss = loss
		dH = tensor.New(h.Rows, classes)
		for i, pos := range p.trainLocal {
			copy(dH.Row(int(pos)), dLogits.Row(i))
		}
	}

	for l := len(model.Layers) - 1; l >= 0; l-- {
		layer := model.Layers[l]
		t.chargeLayer(d, layer, p, true)
		var dXsrc *tensor.Matrix
		if t.real() {
			dXsrc = layer.Backward(p.block, ctxs[l], dH)
		}
		dPrev, bytes := t.haloExchangeBackward(dev, dXsrc, layer.InDim())
		st.HaloBytes += bytes
		dH = dPrev
	}

	// Model synchronization: allreduce flattened gradients.
	total := model.NumParamElements()
	if t.real() {
		flat := tensor.New(1, total)
		off := 0
		for _, pr := range model.Params() {
			copy(flat.Data[off:], pr.G.Data)
			off += len(pr.G.Data)
		}
		t.Comm.RingAllReduceData(dev, flat.Data, nil)
		if t.Comm.NumDevices() == 1 {
			// A one-rank sum is 0+x, which turns -0 gradients into
			// +0; world-1 results keep those bits.
			for i := range flat.Data {
				flat.Data[i] += 0
			}
		}
		off = 0
		for _, pr := range model.Params() {
			copy(pr.G.Data, flat.Data[off:off+len(pr.G.Data)])
			off += len(pr.G.Data)
		}
		t.opts[dev].Step(model.Params())
		model.ZeroGrad()
	}
	t.Comm.Charge(dev, device.StageShuffle, comm.AllReduceOp(total, nil))
	return st
}

// haloExchangeForward ships each device's boundary embeddings to the
// partitions whose halos need them and assembles the full source
// matrix (own rows first, halo rows filled from peers). When idx is
// non-nil, own row i lives at h.Row(idx[i]) — the layer-0 case, where
// h is the master feature matrix read through the partition's node
// list instead of a gathered copy.
func (t *Trainer) haloExchangeForward(dev int, h *tensor.Matrix, idx []graph.NodeID, dim int) (*tensor.Matrix, int64) {
	p := t.parts[dev]
	n := t.cfg.Platform.NumDevices()
	ownRow := func(r int32) []float32 {
		if idx != nil {
			return h.Row(int(idx[r]))
		}
		return h.Row(int(r))
	}
	outs := make([]comm.Payload, n)
	var sent int64
	for peer := 0; peer < n; peer++ {
		rows := p.sendTo[peer]
		if len(rows) == 0 || peer == dev {
			continue
		}
		if t.real() {
			m := tensor.New(len(rows), dim)
			for i, r := range rows {
				copy(m.Row(i), ownRow(r))
			}
			outs[peer] = comm.Payload{Mat: m}
		} else {
			outs[peer] = comm.Payload{Bytes: int64(len(rows)) * int64(dim) * 4}
		}
		sent += int64(len(rows)) * int64(dim) * 4
	}
	in, op := t.Comm.AllToAll(dev, outs)
	t.Comm.Charge(dev, device.StageShuffle, op)
	if !t.real() {
		return nil, sent
	}
	xsrc := tensor.New(p.block.NumSrc(), dim)
	if idx != nil {
		tensor.GatherInto(xsrc, h, idx)
	} else {
		for i := 0; i < h.Rows; i++ {
			copy(xsrc.Row(i), h.Row(i))
		}
	}
	for peer := 0; peer < n; peer++ {
		if peer == dev || in[peer].Mat == nil {
			continue
		}
		for i, pos := range p.recvPos[peer] {
			copy(xsrc.Row(int(pos)), in[peer].Mat.Row(i))
		}
	}
	return xsrc, sent
}

// haloExchangeBackward returns halo-source gradients to their owners
// and accumulates them into each owner's own-node gradient.
func (t *Trainer) haloExchangeBackward(dev int, dXsrc *tensor.Matrix, dim int) (*tensor.Matrix, int64) {
	p := t.parts[dev]
	n := t.cfg.Platform.NumDevices()
	outs := make([]comm.Payload, n)
	var sent int64
	for peer := 0; peer < n; peer++ {
		pos := p.recvPos[peer]
		if len(pos) == 0 || peer == dev {
			continue
		}
		if t.real() {
			m := tensor.New(len(pos), dim)
			for i, r := range pos {
				copy(m.Row(i), dXsrc.Row(int(r)))
			}
			outs[peer] = comm.Payload{Mat: m}
		} else {
			outs[peer] = comm.Payload{Bytes: int64(len(pos)) * int64(dim) * 4}
		}
		sent += int64(len(pos)) * int64(dim) * 4
	}
	in, op := t.Comm.AllToAll(dev, outs)
	t.Comm.Charge(dev, device.StageShuffle, op)
	if !t.real() {
		return nil, sent
	}
	dPrev := tensor.New(len(p.own), dim)
	for i := range p.own {
		copy(dPrev.Row(i), dXsrc.Row(i))
	}
	for peer := 0; peer < n; peer++ {
		if peer == dev || in[peer].Mat == nil {
			continue
		}
		for i, r := range p.sendTo[peer] {
			row := dPrev.Row(int(r))
			src := in[peer].Mat.Row(i)
			for j := range row {
				row[j] += src[j]
			}
		}
	}
	return dPrev, sent
}

// chargeLayer charges one layer's full-graph compute on the device.
func (t *Trainer) chargeLayer(d *device.Device, layer nn.Layer, p *partState, backward bool) {
	plat := t.cfg.Platform
	nSrc := float64(p.block.NumSrc())
	edges := float64(p.block.NumEdges())
	in, out := float64(layer.InDim()), float64(layer.OutDim())
	dense := 2 * nSrc * in * out
	sparse := 2 * edges * out
	if gat, ok := layer.(*nn.GATLayer); ok {
		dh := float64(gat.OutPerHead())
		heads := float64(gat.Heads)
		dense = 2 * nSrc * in * dh * heads
		sparse = 6 * edges * dh * heads
	}
	if backward {
		dense *= 2
		sparse *= 2
	}
	d.Charge(device.StageTrain, plat.DenseTime(dense)+plat.SparseTime(sparse))
}
