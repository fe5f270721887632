package engine

import (
	"repro/internal/comm"
	"repro/internal/device"
)

// payload aliases comm.Payload; the runners build a lot of them.
type payload = comm.Payload

// allToAll is the worker-scoped collective shorthand: it moves the
// payloads and charges the exchange to stage. Calls are counted per
// stage so the cost model can charge per-call latency.
func (w *worker) allToAll(stage string, outs []payload) []payload {
	if stage == device.StageBuild {
		w.stats.BuildA2ACalls++
	} else {
		w.stats.ShufA2ACalls++
	}
	in, op := w.eng.Comm.AllToAll(w.dev.ID, outs)
	w.eng.Comm.Charge(w.dev.ID, stage, op)
	return in
}

// allGather broadcasts p from every worker and returns all payloads.
func (w *worker) allGather(stage string, p payload) []payload {
	if stage == device.StageBuild {
		w.stats.BuildBcastCalls++
	} else {
		w.stats.ShufBcastCalls++
	}
	in, op := w.eng.Comm.AllGather(w.dev.ID, p)
	w.eng.Comm.Charge(w.dev.ID, stage, op)
	return in
}
