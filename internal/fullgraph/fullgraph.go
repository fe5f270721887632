// Package fullgraph implements multi-device full-graph GNN training in
// the style of the early systems the paper's related work discusses
// (NeuGraph, ROC, DGCL): the whole graph is partitioned across
// devices, every epoch is one full forward/backward pass over all
// nodes, and each layer exchanges boundary ("halo") embeddings between
// partitions. It exists as the baseline that motivates sampling-based
// training — per-pass computation and communication are heavy, and the
// per-layer activations of all nodes must fit in device memory, which
// fails at scale (the extension experiment shows both effects).
package fullgraph

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Config assembles a full-graph training run.
type Config struct {
	Platform *hardware.Platform
	Graph    *graph.Graph
	// Feats/Labels are required in Real mode.
	Feats  *tensor.Matrix
	Labels []int32
	// TrainNodes are the labeled nodes the loss covers.
	TrainNodes []graph.NodeID
	// NewModel builds one replica per device.
	NewModel     func() *nn.Model
	NewOptimizer func() nn.Optimizer
	// Assign maps node -> owning device (an edge-cut partitioning).
	Assign []int32
	Mode   engine.Mode
	Seed   uint64
}

// Trainer executes full-graph training.
type Trainer struct {
	cfg    Config
	Group  *device.Group
	Comm   *comm.Comm
	models []*nn.Model
	opts   []nn.Optimizer
	parts  []*partState
}

// partState is one device's static structures.
type partState struct {
	// own lists the device's nodes (global IDs).
	own []graph.NodeID
	// block is the device's layer computation graph: Dst = own, Src =
	// own ++ halo (dst-first so attention layers work).
	block *sample.Block
	// halo lists remote sources in Src order (Src[len(own):]).
	halo []graph.NodeID
	// sendTo[p] lists the positions (into own) of the nodes this
	// device must ship to device p each layer.
	sendTo [][]int32
	// recvPos[p] lists the positions (into Src) that device p's
	// shipment fills.
	recvPos [][]int32
	// trainLocal are positions (into own) of this device's train nodes.
	trainLocal []int32
	// trainIDs are their global IDs.
	trainIDs []graph.NodeID
}

// EpochStats reports one full-graph epoch.
type EpochStats struct {
	// ComputeSec / HaloSec decompose the epoch (max over devices).
	ComputeSec, HaloSec float64
	// HaloBytes is the total boundary-exchange volume (all layers,
	// forward + backward).
	HaloBytes int64
	// ActivationBytes is the peak per-device activation footprint.
	ActivationBytes int64
	// Loss is the full-batch training loss (real mode).
	Loss float64
	// OOM reports device-memory overflow (the reason full-graph
	// training fails at scale).
	OOM bool
}

// EpochTime sums the stage maxima.
func (s EpochStats) EpochTime() float64 { return s.ComputeSec + s.HaloSec }

// New validates the configuration and builds the per-device structures.
func New(cfg Config) (*Trainer, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Graph == nil || cfg.NewModel == nil || cfg.Assign == nil {
		return nil, fmt.Errorf("fullgraph: graph, model, and partition are required")
	}
	if len(cfg.Assign) != cfg.Graph.NumNodes() {
		return nil, fmt.Errorf("fullgraph: partition covers %d of %d nodes",
			len(cfg.Assign), cfg.Graph.NumNodes())
	}
	if cfg.Mode == engine.Real && (cfg.Feats == nil || cfg.Labels == nil) {
		return nil, fmt.Errorf("fullgraph: real mode needs features and labels")
	}
	t := &Trainer{cfg: cfg}
	t.Group = device.NewGroup(cfg.Platform)
	t.Comm = comm.New(t.Group)
	n := cfg.Platform.NumDevices()
	for d := 0; d < n; d++ {
		m := cfg.NewModel()
		m.Init(graph.NewRNG(cfg.Seed))
		t.models = append(t.models, m)
		if cfg.NewOptimizer != nil {
			t.opts = append(t.opts, cfg.NewOptimizer())
		} else {
			t.opts = append(t.opts, nn.NewSGD(0.1, 0))
		}
	}
	t.buildParts()
	return t, nil
}

// Model returns device dev's replica.
func (t *Trainer) Model(dev int) *nn.Model { return t.models[dev] }

// buildParts constructs each device's block and halo-exchange plan.
func (t *Trainer) buildParts() {
	g := t.cfg.Graph
	n := t.cfg.Platform.NumDevices()
	t.parts = make([]*partState, n)
	for d := 0; d < n; d++ {
		t.parts[d] = &partState{
			sendTo:  make([][]int32, n),
			recvPos: make([][]int32, n),
		}
	}
	ownPos := make([]int32, g.NumNodes()) // position of v within its owner
	for v := 0; v < g.NumNodes(); v++ {
		p := t.parts[t.cfg.Assign[v]]
		ownPos[v] = int32(len(p.own))
		p.own = append(p.own, graph.NodeID(v))
	}
	for d := 0; d < n; d++ {
		p := t.parts[d]
		blk := &sample.Block{Dst: p.own, EdgePtr: make([]int64, len(p.own)+1)}
		blk.Src = append(blk.Src, p.own...) // dst-first
		srcPos := make(map[graph.NodeID]int32, len(p.own)*2)
		for i, v := range p.own {
			srcPos[v] = int32(i)
		}
		for i, v := range p.own {
			for _, u := range g.Neighbors(v) {
				pos, ok := srcPos[u]
				if !ok {
					pos = int32(len(blk.Src))
					blk.Src = append(blk.Src, u)
					srcPos[u] = pos
					p.halo = append(p.halo, u)
					owner := int(t.cfg.Assign[u])
					t.parts[owner].sendTo[d] = append(t.parts[owner].sendTo[d], ownPos[u])
					p.recvPos[owner] = append(p.recvPos[owner], pos)
				}
				blk.SrcIdx = append(blk.SrcIdx, pos)
			}
			blk.EdgePtr[i+1] = int64(len(blk.SrcIdx))
		}
		p.block = blk
	}
	for _, v := range t.cfg.TrainNodes {
		p := t.parts[t.cfg.Assign[v]]
		p.trainLocal = append(p.trainLocal, ownPos[v])
		p.trainIDs = append(p.trainIDs, v)
	}
}

// HaloFraction reports the average fraction of each device's sources
// that are remote — the communication intensity of the partitioning.
func (t *Trainer) HaloFraction() float64 {
	var halo, src float64
	for _, p := range t.parts {
		halo += float64(len(p.halo))
		src += float64(p.block.NumSrc())
	}
	if src == 0 {
		return 0
	}
	return halo / src
}
