package fullgraph

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

type fixture struct {
	g      *graph.Graph
	feats  *tensor.Matrix
	labels []int32
	train  []graph.NodeID
	assign []int32
}

func newFixture(t testing.TB, nodes, devices int) *fixture {
	t.Helper()
	const classes = 4
	per := nodes / classes
	rng := graph.NewRNG(7)
	b := graph.NewBuilder(nodes)
	for c := 0; c < classes; c++ {
		base := c * per
		for i := 0; i < per*4; i++ {
			u, v := base+rng.Intn(per), base+rng.Intn(per)
			if u != v {
				b.AddUndirected(int32(u), int32(v))
			}
		}
	}
	for i := 0; i < nodes/8; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			b.AddUndirected(int32(u), int32(v))
		}
	}
	g := b.Build(true)
	feats := tensor.New(nodes, 8)
	labels := make([]int32, nodes)
	for v := 0; v < nodes; v++ {
		c := v / per
		if c >= classes {
			c = classes - 1
		}
		labels[v] = int32(c)
		for j := 0; j < 8; j++ {
			feats.Set(v, j, 0.3*rng.NormFloat32())
		}
		feats.Set(v, c, feats.At(v, c)+1)
	}
	var train []graph.NodeID
	for v := 0; v < nodes; v += 2 {
		train = append(train, graph.NodeID(v))
	}
	assign := partition.Multilevel(g, devices, partition.MultilevelConfig{Seed: 3, EdgeBalanced: true}).Assign
	return &fixture{g: g, feats: feats, labels: labels, train: train, assign: assign}
}

func (f *fixture) config(devices int, mode engine.Mode) Config {
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, devices)
	assign := f.assign
	if devices == 1 {
		assign = make([]int32, f.g.NumNodes())
	}
	cfg := Config{
		Platform:   p,
		Graph:      f.g,
		TrainNodes: f.train,
		NewModel: func() *nn.Model {
			return nn.NewGraphSAGE(8, 12, 4, 2)
		},
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.5, 0) },
		Assign:       assign,
		Mode:         mode,
		Seed:         11,
	}
	if mode == engine.Real {
		cfg.Feats = f.feats
		cfg.Labels = f.labels
	}
	return cfg
}

// TestMultiDeviceMatchesSingle is the halo-exchange correctness check:
// a 4-device full-graph pass must produce the same model as a
// single-device pass (up to float reassociation).
func TestMultiDeviceMatchesSingle(t *testing.T) {
	f := newFixture(t, 240, 4)
	single, err := New(f.config(1, engine.Real))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(f.config(4, engine.Real))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s := single.RunEpoch()
		m := multi.RunEpoch()
		if d := s.Loss - m.Loss; d > 1e-4 || d < -1e-4 {
			t.Fatalf("epoch %d: loss %v vs %v", i, s.Loss, m.Loss)
		}
	}
	ps, pm := single.Model(0).Params(), multi.Model(0).Params()
	for i := range ps {
		if d := ps[i].W.MaxAbsDiff(pm[i].W); d > 1e-3 {
			t.Errorf("param %d differs by %g between 1 and 4 devices", i, d)
		}
	}
	// Replicas stay in sync.
	p0 := multi.Model(0).Params()
	for dev := 1; dev < 4; dev++ {
		pd := multi.Model(dev).Params()
		for i := range p0 {
			if p0[i].W.MaxAbsDiff(pd[i].W) > 1e-6 {
				t.Fatalf("device %d replica diverged", dev)
			}
		}
	}
}

func TestFullGraphLearns(t *testing.T) {
	f := newFixture(t, 240, 4)
	cfg := f.config(4, engine.Real)
	cfg.NewOptimizer = func() nn.Optimizer { return nn.NewAdam(0.05) }
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.RunEpoch().Loss
	var last float64
	for i := 0; i < 30; i++ {
		last = tr.RunEpoch().Loss
	}
	if last >= first/2 {
		t.Errorf("full-graph training failed to learn: %v -> %v", first, last)
	}
}

func TestGATFullGraph(t *testing.T) {
	f := newFixture(t, 180, 3)
	cfg := f.config(3, engine.Real)
	cfg.NewModel = func() *nn.Model { return nn.NewGAT(8, 4, 2, 4, 2) }
	multi, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgS := f.config(1, engine.Real)
	cfgS.NewModel = cfg.NewModel
	single, err := New(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	sm := single.RunEpoch()
	mm := multi.RunEpoch()
	if d := sm.Loss - mm.Loss; d > 1e-4 || d < -1e-4 {
		t.Errorf("GAT full-graph loss differs: %v vs %v", sm.Loss, mm.Loss)
	}
}

func TestAccountingModeVolumesAndOOM(t *testing.T) {
	f := newFixture(t, 400, 4)
	cfg := f.config(4, engine.Accounting)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.RunEpoch()
	if st.HaloBytes <= 0 {
		t.Error("no halo traffic recorded")
	}
	if st.ComputeSec <= 0 || st.HaloSec <= 0 {
		t.Errorf("missing stage times: %+v", st)
	}
	if st.EpochTime() != st.ComputeSec+st.HaloSec {
		t.Error("EpochTime does not decompose")
	}
	if tr.HaloFraction() <= 0 || tr.HaloFraction() >= 1 {
		t.Errorf("halo fraction %v out of range", tr.HaloFraction())
	}

	// Tiny device memory: the per-layer activations overflow — the
	// memory wall that makes full-graph training infeasible at scale.
	small := f.config(4, engine.Accounting)
	tinyPlat := *small.Platform
	tinyPlat.GPUMemBytes = 1024
	tinyPlat.DefaultCacheBytes = 0
	small.Platform = &tinyPlat
	tr2, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr2.RunEpoch(); !st.OOM {
		t.Error("activation overflow not flagged on tiny device")
	}
}

func TestValidation(t *testing.T) {
	f := newFixture(t, 100, 2)
	cfg := f.config(2, engine.Real)
	cfg.Assign = []int32{0}
	if _, err := New(cfg); err == nil {
		t.Error("accepted short partition")
	}
	cfg2 := f.config(2, engine.Real)
	cfg2.Feats = nil
	if _, err := New(cfg2); err == nil {
		t.Error("accepted real mode without features")
	}
	cfg3 := f.config(2, engine.Real)
	cfg3.NewModel = nil
	if _, err := New(cfg3); err == nil {
		t.Error("accepted missing model")
	}
}
