package engine

import (
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Evaluate computes classification accuracy of model m on the given
// seeds, sampling with the provided configuration.
func Evaluate(g *graph.Graph, m *nn.Model, feats *tensor.Matrix, labels []int32,
	seeds []graph.NodeID, smp sample.Config, batchSize int, seed uint64) float64 {
	if m.NeedsDstInSrc() {
		smp.IncludeDstInSrc = true
	}
	sampler := sample.NewSampler(g, smp, graph.NewRNG(seed))
	correct, total := 0.0, 0
	for lo := 0; lo < len(seeds); lo += batchSize {
		hi := lo + batchSize
		if hi > len(seeds) {
			hi = len(seeds)
		}
		batch := seeds[lo:hi]
		mb := sampler.Sample(batch)
		st := m.ForwardGathered(mb, tensor.FS(feats), mb.Layer1().Src)
		lb := make([]int32, len(batch))
		for i, s := range batch {
			lb[i] = labels[s]
		}
		correct += nn.Accuracy(st.Logits, lb) * float64(len(batch))
		total += len(batch)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
