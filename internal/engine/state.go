package engine

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
)

// Checkpointable engine state. The engine is deterministic given its
// RNG streams: params and optimizer moments are restored through the
// nn package, and the cursors exported here are the remaining mutable
// state a resumed run needs to draw the same mini-batches the
// uninterrupted run would have drawn. All accessors are safe only
// between epochs (no RunEpoch in flight).

// RNGCursors returns each device sampler's RNG stream position plus
// the epoch shuffler's, in device order.
func (e *Engine) RNGCursors() (samplers [][4]uint64, epoch [4]uint64) {
	samplers = make([][4]uint64, len(e.samplers))
	for i, s := range e.samplers {
		samplers[i] = s.RNGState()
	}
	return samplers, e.epochRNG.State()
}

// SetRNGCursors restores cursors captured by RNGCursors on an engine
// with the same device count.
func (e *Engine) SetRNGCursors(samplers [][4]uint64, epoch [4]uint64) error {
	if len(samplers) != len(e.samplers) {
		return fmt.Errorf("engine: %d rng cursors for %d samplers", len(samplers), len(e.samplers))
	}
	for i, st := range samplers {
		if !e.samplers[i].SetRNGState(st) {
			return fmt.Errorf("engine: sampler %d cursor is the degenerate all-zero state", i)
		}
	}
	if !e.epochRNG.SetState(epoch) {
		return fmt.Errorf("engine: epoch rng cursor is the degenerate all-zero state")
	}
	return nil
}

// SyncRNGCursors makes every sampler's cursor locally readable. In a
// multi-process run each rank advances only its own device's sampler,
// so the peers' replicas of that stream sit at stale positions; this
// exchanges the authoritative cursor of each rank with every other, a
// COLLECTIVE operation every rank must enter at the same epoch
// boundary. In-process engines advance all samplers locally and this
// is a no-op. Each cursor crosses the wire as eight u32 bit patterns
// in a Payload.Ints — integers survive the codec exactly.
func (e *Engine) SyncRNGCursors() error {
	if e.cfg.Transport == nil {
		return nil
	}
	r := e.cfg.LocalRank
	st := e.samplers[r].RNGState()
	ints := make([]int32, 8)
	for i, u := range st {
		ints[2*i] = int32(uint32(u))
		ints[2*i+1] = int32(uint32(u >> 32))
	}
	// Checkpoint bookkeeping, not training traffic: nothing is charged.
	got, _ := e.Comm.AllGather(r, comm.Payload{Ints: ints})
	for peer, p := range got {
		if peer == r {
			continue
		}
		if len(p.Ints) != 8 {
			return fmt.Errorf("engine: rank %d sent %d cursor words, want 8", peer, len(p.Ints))
		}
		var ps [4]uint64
		for i := range ps {
			ps[i] = uint64(uint32(p.Ints[2*i])) | uint64(uint32(p.Ints[2*i+1]))<<32
		}
		if !e.samplers[peer].SetRNGState(ps) {
			return fmt.Errorf("engine: rank %d sent the degenerate all-zero cursor", peer)
		}
	}
	return nil
}

// LocalRank returns the device this engine instance drives: the
// process rank in a distributed run, 0 in-process (where the replicas
// are all local and interchangeable after an epoch's collectives).
func (e *Engine) LocalRank() int { return e.cfg.LocalRank }

// Optimizer returns the device's optimizer (for checkpointing its
// state; whether it is stateful is the caller's type assertion).
func (e *Engine) Optimizer(dev int) nn.Optimizer { return e.opts[dev] }

// PipelineState reports whether the engine overlaps sampling with
// compute and under what prefetch bound — the live values, including
// any EnablePipeline resize applied after construction.
func (e *Engine) PipelineState() (pipelined bool, depth int) {
	return e.cfg.Pipeline, e.cfg.PipelineDepth
}

// EpochsRun counts epochs this engine instance completed in full;
// cancelled epochs do not count, so after a mid-epoch kill the counter
// still names the last epoch boundary — exactly the state a snapshot
// taken there captured.
func (e *Engine) EpochsRun() int { return e.epochsRun }
