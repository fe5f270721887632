package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// transportBenchWorld is the rank count for the transport comparison.
// Two ranks keep the loopback run cheap while still crossing a real
// socket for every collective.
const transportBenchWorld = 2

// transportResult is one strategy's channel-vs-TCP measurement.
type transportResult struct {
	ChannelEpochSec float64 `json:"channel_epoch_sec"`
	TCPEpochSec     float64 `json:"tcp_epoch_sec"`
	TCPOverChannel  float64 `json:"tcp_over_channel"`
}

// Allreduce microbenchmark shape: one op reduces arElems float32
// (4 MiB) — large enough that serialization and copy dominate per-op
// fixed costs, small enough that the naive full-mesh cannot hide its
// 2x wire volume behind loopback's parallel per-peer connections.
// Each series is the fastest of arRepeats blocks of arIters lockstep
// ops (min-of-N is the stable estimator for a shared, occasionally-
// preempted machine; the mean would fold scheduler noise into the
// regression gate).
const (
	arElems   = 1 << 20
	arIters   = 8
	arRepeats = 5
)

// arSeries is one (world, backend, algo, codec) allreduce measurement.
type arSeries struct {
	World    int     `json:"world"`
	Backend  string  `json:"backend"` // "channel" or "tcp"
	Algo     string  `json:"algo"`    // "naive" or "ring"
	Codec    string  `json:"codec"`   // "fp32", "fp16", "int8"
	SecPerOp float64 `json:"sec_per_op"`
}

func (s arSeries) key() string {
	return fmt.Sprintf("w%d/%s/%s/%s", s.World, s.Backend, s.Algo, s.Codec)
}

// transportReport is the BENCH_transport.json schema.
type transportReport struct {
	GeneratedBy string                     `json:"generated_by"`
	World       int                        `json:"world"`
	Epochs      int                        `json:"epochs"`
	Strategies  map[string]transportResult `json:"strategies"`
	// AllReduce is the raw-collective series: naive vs ring × codec at
	// worlds 2 and 4 over both backends.
	AllReduce []arSeries `json:"allreduce"`
	// RingReductionWorld4TCP is 1 - ring/naive fp32 wall time at world 4
	// over TCP — the headline win of the chunked ring data plane (it
	// moves 1.5·V per rank where the naive full-mesh gather moves 3·V).
	RingReductionWorld4TCP float64 `json:"ring_reduction_world4_tcp"`
}

// transportBench measures wall-clock epoch time of real-mode training
// under the in-process channel transport against the same job split
// into TCP-loopback rank processes (modeled as goroutines, each with
// its own APT instance, sharing only sockets). Engine construction and
// planning are excluded from the timing; training is bit-identical
// across the two transports, so the column isolates pure wire
// overhead. It then measures the raw allreduce series (naive vs ring ×
// wire codec at worlds 2 and 4). Results go to stdout and
// BENCH_transport.json.
func transportBench(scale float64, epochs, batch int, jsonPath string) (string, error) {
	if epochs < 1 {
		epochs = 1
	}
	mkTask := func() core.Task {
		spec, err := dataset.ByAbbr("PS", scale)
		if err != nil {
			panic(err)
		}
		spec.HomophilyDegree = 6
		ds := dataset.Build(spec, true)
		return core.Task{
			Graph:   ds.Graph,
			Feats:   ds.Feats,
			Labels:  ds.Labels,
			FeatDim: spec.FeatDim,
			Seeds:   ds.TrainSeeds,
			NewModel: func() *nn.Model {
				return nn.NewGraphSAGE(spec.FeatDim, 32, spec.Classes, 2)
			},
			Sampling:   sample.Config{Fanouts: []int{10, 10}},
			BatchSize:  batch,
			Platform:   hardware.WithDevices(hardware.SingleMachine8GPU(), 1, transportBenchWorld),
			CacheBytes: ds.CacheBytesFraction(0.08),
			Seed:       7,
		}
	}

	kinds := []strategy.Kind{strategy.GDP, strategy.NFP, strategy.SNP, strategy.DNP}
	results := make(map[string]transportResult, len(kinds))
	var b strings.Builder
	fmt.Fprintf(&b, "Transport overhead: wall epoch time, channel vs TCP loopback (world=%d, %d epoch(s))\n",
		transportBenchWorld, epochs)
	fmt.Fprintf(&b, "%-6s  %14s  %14s  %8s\n", "", "channel s/ep", "tcp s/ep", "tcp/ch")

	for _, k := range kinds {
		chSec, err := channelEpochSec(mkTask(), k, epochs)
		if err != nil {
			return "", fmt.Errorf("%v channel: %w", k, err)
		}
		tcpSec, err := tcpEpochSec(mkTask, k, epochs)
		if err != nil {
			return "", fmt.Errorf("%v tcp: %w", k, err)
		}
		r := transportResult{ChannelEpochSec: chSec, TCPEpochSec: tcpSec, TCPOverChannel: tcpSec / chSec}
		results[k.String()] = r
		fmt.Fprintf(&b, "%-6v  %14.4f  %14.4f  %8.2f\n", k, r.ChannelEpochSec, r.TCPEpochSec, r.TCPOverChannel)
	}

	series, err := allReduceBench()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nAllReduce: wall s/op, %d f32 elems (naive vs ring, per wire codec)\n", arElems)
	fmt.Fprintf(&b, "%-28s  %12s\n", "", "s/op")
	for _, s := range series {
		fmt.Fprintf(&b, "%-28s  %12.5f\n", s.key(), s.SecPerOp)
	}
	red := ringReduction(series)
	fmt.Fprintf(&b, "ring vs naive reduction, world 4 over TCP: %.0f%%\n", 100*red)

	blob, err := json.MarshalIndent(transportReport{
		GeneratedBy: "make bench-transport",
		World:       transportBenchWorld,
		Epochs:      epochs,
		Strategies:  results,
		AllReduce:   series,

		RingReductionWorld4TCP: red,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "results written to %s\n", jsonPath)
	return b.String(), nil
}

// ringReduction extracts 1 - ring/naive (fp32, world 4, TCP).
func ringReduction(series []arSeries) float64 {
	var naive, ring float64
	for _, s := range series {
		if s.World == 4 && s.Backend == "tcp" && s.Codec == "fp32" {
			switch s.Algo {
			case "naive":
				naive = s.SecPerOp
			case "ring":
				ring = s.SecPerOp
			}
		}
	}
	if naive <= 0 {
		return 0
	}
	return 1 - ring/naive
}

// transportCheck re-runs the allreduce series and gates against the
// committed BENCH_transport.json. Two gates: the within-run
// ring-vs-naive reduction at world 4 over TCP (machine-speed
// independent, so it gets a tight bar), and a gross-regression
// tripwire on each ring series' absolute sec_per_op. The tripwire's
// tolerance is wide (+50%) because concurrent socket benchmarks swing
// 10-30% between container invocations — it exists to catch structural
// regressions (an accidental extra volume, a dead codec), not to
// relitigate scheduler noise; the 10%-tight gating lives in the kernel
// series, which is single-threaded and stable. The training columns
// are not re-gated here (they are an order of magnitude slower to
// reproduce).
func transportCheck(jsonPath string) (string, error) {
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		return "", fmt.Errorf("no recorded baseline (run make bench-transport first): %w", err)
	}
	var rec transportReport
	if err := json.Unmarshal(blob, &rec); err != nil {
		return "", err
	}
	recorded := make(map[string]float64, len(rec.AllReduce))
	for _, s := range rec.AllReduce {
		recorded[s.key()] = s.SecPerOp
	}
	series, err := allReduceBench()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Transport check against %s (tripwire tolerance +50%%)\n", jsonPath)
	bad := false
	for _, s := range series {
		want, ok := recorded[s.key()]
		verdict := "ok"
		switch {
		case s.Algo == "naive":
			// The naive algorithm is only the comparison foil; its
			// absolute time is not a product path and is not gated.
			verdict = "foil (not gated)"
		case !ok:
			verdict = "new (no baseline)"
		case s.SecPerOp > want*1.50:
			verdict = fmt.Sprintf("FAIL (+%.0f%% over %.5f)", 100*(s.SecPerOp/want-1), want)
			bad = true
		}
		fmt.Fprintf(&b, "%-28s  %12.5f  %s\n", s.key(), s.SecPerOp, verdict)
	}
	// The recorded baseline holds the ring at >= 40% under the naive
	// full-mesh; live runs of the same series swing roughly 33-51% with
	// container load, so the gate sits at 30% — low enough not to
	// relitigate noise, high enough that losing the ring win outright
	// (a structural regression pushes this toward 0) still trips it.
	if red := ringReduction(series); red < 0.30 {
		fmt.Fprintf(&b, "FAIL: ring reduction at world 4 over TCP is %.1f%%, want >= 30%%\n", 100*red)
		bad = true
	} else {
		fmt.Fprintf(&b, "ring vs naive reduction, world 4 over TCP: %.1f%%\n", 100*red)
	}
	if bad {
		return b.String(), fmt.Errorf("transport benchmark regressed")
	}
	return b.String(), nil
}

// allReduceBench runs the raw-collective series: worlds 2 and 4, both
// backends, naive fp32 plus the ring under every wire codec.
func allReduceBench() ([]arSeries, error) {
	type cfg struct{ algo, codec string }
	cfgs := []cfg{{"naive", "fp32"}, {"ring", "fp32"}, {"ring", "fp16"}, {"ring", "int8"}}
	var out []arSeries
	for _, world := range []int{2, 4} {
		for _, backend := range []string{"channel", "tcp"} {
			for _, c := range cfgs {
				sec, err := allReduceSecPerOp(world, backend, c.algo, c.codec)
				if err != nil {
					return nil, fmt.Errorf("allreduce w%d/%s/%s/%s: %w", world, backend, c.algo, c.codec, err)
				}
				out = append(out, arSeries{World: world, Backend: backend, Algo: c.algo, Codec: c.codec, SecPerOp: sec})
			}
		}
	}
	return out, nil
}

// allReduceSecPerOp times one configuration. Every rank loops one
// allreduce of its own arElems-value matrix — the ring data plane, or
// the naive foil (AllGather plus a local sum); the clock covers
// all ranks completing arIters lockstep ops (one untimed warmup op
// absorbs connection and pool cold starts).
//
//apt:allow simclock this benchmark's measurand IS wall-clock collective time
func allReduceSecPerOp(world int, backend, algo, codecName string) (float64, error) {
	codec, err := transport.ChunkCodecByName(codecName)
	if err != nil {
		return 0, err
	}
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, world)

	comms := make([]*comm.Comm, world)
	var trs []*transport.TCP
	switch backend {
	case "channel":
		c := comm.New(device.NewGroup(p))
		for r := range comms {
			comms[r] = c
		}
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		trs = make([]*transport.TCP, world)
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
				if r == 0 {
					opts.CoordListener = ln
				}
				trs[r], errs[r] = transport.NewTCP(opts)
				if errs[r] == nil {
					comms[r] = comm.NewWithTransport(device.NewGroup(p), trs[r])
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("unknown backend %q", backend)
	}

	run := func(iters int) {
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				mat := tensor.Get(1, arElems)
				for i := range mat.Data {
					mat.Data[i] = float32(r+1) * float32(i%17)
				}
				sum := tensor.Get(1, arElems)
				for it := 0; it < iters; it++ {
					if algo == "naive" {
						// The foil: full-mesh gather of the whole vector
						// plus a local sum (~C×V per rank on the wire).
						parts, _ := comms[r].AllGather(r, comm.Payload{Mat: mat})
						sum.Zero()
						for _, part := range parts {
							sum.AddInPlace(part.Mat)
						}
					} else {
						copy(sum.Data, mat.Data)
						comms[r].RingAllReduceData(r, sum.Data, codec)
					}
				}
				tensor.Put(sum)
				tensor.Put(mat)
			}(r)
		}
		wg.Wait()
	}
	run(1) // warmup
	sec := 0.0
	for rep := 0; rep < arRepeats; rep++ {
		start := time.Now()
		run(arIters)
		if s := time.Since(start).Seconds() / arIters; rep == 0 || s < sec {
			sec = s
		}
	}
	for _, tr := range trs {
		if err := tr.Close(); err != nil {
			return 0, err
		}
	}
	return sec, nil
}

//apt:allow simclock this benchmark's measurand IS wall-clock epoch time
func channelEpochSec(task core.Task, k strategy.Kind, epochs int) (float64, error) {
	apt, err := core.New(task)
	if err != nil {
		return 0, err
	}
	e, err := apt.BuildEngine(k)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for ep := 0; ep < epochs; ep++ {
		e.RunEpoch()
	}
	return time.Since(start).Seconds() / float64(epochs), nil
}

//apt:allow simclock this benchmark's measurand IS wall-clock epoch time
func tcpEpochSec(mkTask func() core.Task, k strategy.Kind, epochs int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	const world = transportBenchWorld
	trs := make([]*transport.TCP, world)
	engines := make([]*engine.Engine, world)
	errs := make([]error, world)
	// Build phase: bootstrap the mesh and construct every rank's engine
	// before the clock starts, as a launcher would.
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
			if r == 0 {
				opts.CoordListener = ln
			}
			tr, err := transport.NewTCP(opts)
			if err != nil {
				errs[r] = err
				return
			}
			trs[r] = tr
			apt, err := core.New(mkTask())
			if err != nil {
				errs[r] = err
				return
			}
			engines[r], errs[r] = apt.BuildEngineDistributed(k, tr, r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for ep := 0; ep < epochs; ep++ {
				engines[r].RunEpoch()
			}
		}(r)
	}
	wg.Wait()
	sec := time.Since(start).Seconds() / float64(epochs)
	for r := 0; r < world; r++ {
		if err := trs[r].Close(); err != nil {
			return 0, err
		}
	}
	return sec, nil
}
