package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/fullgraph"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// ExtensionFullGraph contrasts sampling-based training (the paper's
// setting) with NeuGraph/ROC-style full-graph training (its related
// work §6): one full-graph pass computes embeddings for every node and
// exchanges halo embeddings every layer, so its per-pass compute and
// communication dwarf a sampled epoch — and its per-layer activations
// exceed device memory at scale.
func (e *Env) ExtensionFullGraph() (string, error) {
	var b strings.Builder
	b.WriteString(header("Extension: full-graph baseline", "sampling-based vs NeuGraph/ROC-style full-graph training"))
	for _, abbr := range []string{"PS", "FS"} {
		task := e.task(taskConfig{abbr: abbr, hidden: 32})
		res, err := e.RunCase(task)
		if err != nil {
			return "", err
		}
		best, bestT := res.Best()

		fg, err := fullgraph.New(fullgraph.Config{
			Platform:   task.Platform,
			Graph:      task.Graph,
			TrainNodes: task.Seeds,
			NewModel:   task.NewModel,
			Assign:     e.Partition(abbr, task.Platform.NumDevices(), 0).Assign,
			Mode:       engine.Accounting,
			Seed:       7,
		})
		if err != nil {
			return "", err
		}
		st := fg.RunEpoch()
		oom := ""
		if st.OOM {
			oom = " [activations exceed GPU memory]"
		}
		rows := []trace.Row{
			{Label: "sampled", Marked: true, Segments: []trace.Seg{
				{Name: "compute", Sec: res.Stats[best].TrainBar() + res.Stats[best].SamplingBar()},
				{Name: "halo/load", Sec: res.Stats[best].LoadSec},
			}, Note: fmt.Sprintf("(APT pick: %v)", best)},
			{Label: "full-graph", Segments: []trace.Seg{
				{Name: "compute", Sec: st.ComputeSec},
				{Name: "halo/load", Sec: st.HaloSec},
			}, Note: fmt.Sprintf("halo %.0fMB, peak activations %.0fMB%s",
				float64(st.HaloBytes)/1e6, float64(st.ActivationBytes)/1e6, oom)},
		}
		b.WriteString(trace.RenderBars(fmt.Sprintf("%s, per-epoch cost (hidden 32)", abbr), rows))
		// A sampled epoch performs one model update per synchronized
		// mini-batch step; a full-graph pass performs exactly one. The
		// per-update cost is what governs convergence speed.
		batches := res.Stats[best].NumBatches
		if batches == 0 {
			batches = 1
		}
		stepCost := bestT / float64(batches)
		fmt.Fprintf(&b, "  full-graph pass vs one sampled mini-batch update (%v): %.0fx more expensive;\n",
			best, st.EpochTime()/stepCost)
		fmt.Fprintf(&b, "  halo fraction %.0f%% of sources; mini-batch takes %d updates per epoch, full-graph takes 1\n",
			fg.HaloFraction()*100, batches)
	}
	return b.String(), nil
}

var _ = strategy.GDP // reserved
