// Command aptserve is the online inference daemon: it loads (or
// trains) a GNN model over a synthetic dataset preset and serves
// predictions over HTTP/JSON with adaptive micro-batching, or
// benchmarks itself with the built-in load generator.
//
// Serve a checkpoint trained by aptrun (same dataset/model flags):
//
//	aptrun   -data FS -model sage -hidden 32 -epochs 5 -save /tmp/fs.ckpt
//	aptserve -data FS -model sage -hidden 32 -checkpoint /tmp/fs.ckpt -addr :8399
//
//	curl -s localhost:8399/predict -d '{"nodes":[1,2,3]}'
//	curl -s localhost:8399/stats     # JSON snapshot
//	curl -s localhost:8399/metrics   # text exposition format
//	curl -s localhost:8399/healthz
//
// A running daemon hot-swaps its model without dropping requests when
// the checkpoint file is rewritten (e.g. by a fresh aptrun) and either
// `curl -X POST localhost:8399/reload` or SIGHUP arrives. -checkpoint
// takes a training snapshot, as written by aptrun -save or the
// checkpoint facade.
//
// Or train in-process and benchmark the serving path:
//
//	aptserve -data FS -train-epochs 3 -loadgen -requests 2000 -concurrency 64
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8399", "HTTP listen address")
		data    = flag.String("data", "FS", "dataset preset: PS, FS, or IM")
		scale   = flag.Float64("scale", 0.1, "dataset scale multiplier")
		model   = flag.String("model", "sage", "model: sage or gat")
		hidden  = flag.Int("hidden", 32, "hidden dimension (per head for gat)")
		heads   = flag.Int("heads", 4, "attention heads (gat)")
		layers  = flag.Int("layers", 2, "GNN layers")
		fanout  = flag.Int("fanout", 10, "neighbors sampled per layer (0 = full neighborhoods)")
		ckpt    = flag.String("checkpoint", "", "load model parameters from this aptrun checkpoint")
		trainEp = flag.Int("train-epochs", 3, "in-process training epochs when no -checkpoint is given")
		devices = flag.Int("devices", 4, "simulated GPUs")
		workers = flag.Int("workers", 0, "inference workers (0 = one per device)")
		maxB    = flag.Int("max-batch", 64, "micro-batcher seed budget per mini-batch")
		maxD    = flag.Duration("max-delay", 2*time.Millisecond, "micro-batcher max queue delay")
		cacheFr = flag.Float64("cache-frac", 0.08, "per-device feature cache, as a fraction of total feature bytes")
		loadgen = flag.Bool("loadgen", false, "run the built-in load generator instead of listening")
		nReq    = flag.Int("requests", 1000, "load generator: total requests")
		conc    = flag.Int("concurrency", 64, "load generator: concurrent clients")
		perReq  = flag.Int("nodes-per-req", 1, "load generator: nodes per request")
	)
	flag.Parse()

	spec, err := dataset.ByAbbr(*data, *scale)
	fatal(err)
	spec.HomophilyDegree = 6
	ds := dataset.Build(spec, true)
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, *devices)

	fanouts := make([]int, *layers)
	method := sample.NodeWise
	if *fanout <= 0 {
		method = sample.Full
	}
	for i := range fanouts {
		fanouts[i] = *fanout
	}
	smp := sample.Config{Fanouts: fanouts, Method: method}

	var newModel func() *nn.Model
	if *model == "gat" {
		newModel = func() *nn.Model {
			return nn.NewGAT(spec.FeatDim, *hidden, *heads, spec.Classes, *layers)
		}
	} else {
		newModel = func() *nn.Model {
			return nn.NewGraphSAGE(spec.FeatDim, *hidden, spec.Classes, *layers)
		}
	}

	// Obtain a trained model: load aptrun's checkpoint, or train
	// in-process with APT's automatic strategy selection. Training also
	// yields the dry-run access frequencies, which configure the
	// serving caches with the paper's hotness rule instead of the
	// degree fallback.
	m := newModel()
	var freq []int64
	if *ckpt != "" {
		fatal(checkpoint.LoadModelInto(m, *ckpt))
		fmt.Printf("loaded checkpoint %s (%d params)\n", *ckpt, m.NumParamElements())
	} else {
		task := core.Task{
			Graph: ds.Graph, Feats: ds.Feats, Labels: ds.Labels,
			FeatDim: spec.FeatDim, Seeds: ds.TrainSeeds,
			NewModel:     newModel,
			NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
			Sampling:     smp, BatchSize: 64, Platform: p,
			CacheBytes: ds.CacheBytesFraction(*cacheFr), Seed: 7,
		}
		apt, err := core.New(task)
		fatal(err)
		choice, err := apt.Plan()
		fatal(err)
		fmt.Printf("training %d epochs in-process (APT selected %v)...\n", *trainEp, choice)
		res, err := apt.TrainWith(choice, *trainEp)
		fatal(err)
		m = res.Model
		freq = apt.DryRunStats().Freq
		fmt.Printf("trained: mean loss %.4f (last epoch)\n", res.Epochs[len(res.Epochs)-1].MeanLoss)
	}

	cfg := serve.Config{
		Graph: ds.Graph, Feats: ds.Feats, Model: m,
		Sampling: smp, Platform: p, Workers: *workers,
		MaxBatch: *maxB, MaxDelay: *maxD,
		CacheBytes: ds.CacheBytesFraction(*cacheFr),
		Seed:       11,
		NewModel:   newModel,
		ReloadPath: *ckpt,
	}
	if freq != nil {
		cfg.Freq = freq // enables the hotness cache policy
	}
	srv, err := serve.New(cfg)
	fatal(err)

	if *loadgen {
		runLoadGen(srv, ds, *nReq, *conc, *perReq)
		fatal(srv.Close())
		return
	}
	serveHTTP(srv, *addr)
}

// runLoadGen fires nReq requests from conc concurrent clients at the
// in-process server and reports latency percentiles, throughput,
// batch sizes, cache hit rate, and label accuracy against the dataset.
//
//apt:allow simclock the load generator measures real request latency and throughput
func runLoadGen(srv *serve.Server, ds *dataset.Dataset, nReq, conc, perReq int) {
	fmt.Printf("load generator: %d requests, %d clients, %d node(s)/request\n", nReq, conc, perReq)
	var next, correct, answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := graph.NewRNG(uint64(0xbeef + c*131))
			nodes := make([]graph.NodeID, perReq)
			for next.Add(1) <= int64(nReq) {
				for i := range nodes {
					nodes[i] = graph.NodeID(rng.Intn(ds.Graph.NumNodes()))
				}
				res, err := srv.Predict(nodes)
				if err != nil {
					fmt.Fprintln(os.Stderr, "aptserve: predict:", err)
					return
				}
				for _, r := range res {
					answered.Add(1)
					if int32(r.Label) == ds.Labels[r.Node] {
						correct.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	st := srv.Stats()
	fmt.Printf("\ncompleted %d requests in %.3fs (%.0f req/s wall)\n",
		st.Requests, wall.Seconds(), float64(st.Requests)/wall.Seconds())
	fmt.Printf("latency  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms  mean %.3fms\n",
		st.P50Ms, st.P95Ms, st.P99Ms, st.MaxMs, st.MeanMs)
	fmt.Printf("batching %d batches, %.2f seeds/batch mean, %d max",
		st.Batches, st.MeanBatchSeeds, st.MaxBatchSeeds)
	fmt.Printf("  (hist:")
	for _, b := range st.BatchHist {
		fmt.Printf(" %d×%d", b.Seeds, b.Count)
	}
	fmt.Printf(")\n")
	fmt.Printf("features %.1f%% GPU-cache hits, reads %v, %.3fs simulated device time\n",
		100*st.CacheHitRate, st.FeatureReads, st.SimSeconds)
	if n := answered.Load(); n > 0 {
		fmt.Printf("accuracy %.3f over %d answered nodes\n", float64(correct.Load())/float64(n), n)
	}
}

// predictRequest is the /predict request body.
type predictRequest struct {
	Nodes []graph.NodeID `json:"nodes"`
}

// predictResponse is the /predict response body.
type predictResponse struct {
	Results   []serve.Result `json:"results"`
	LatencyMs float64        `json:"latency_ms"`
}

// serveHTTP runs the HTTP daemon until SIGINT/SIGTERM, then drains.
//
//apt:allow simclock the per-request latency_ms field is a wall-clock serving metric
func serveHTTP(srv *serve.Server, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		start := time.Now()
		res, err := srv.Predict(req.Nodes)
		switch err.(type) {
		case nil:
		case *serve.UnknownNodeError:
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		default:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(predictResponse{
			Results:   res,
			LatencyMs: time.Since(start).Seconds() * 1e3,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(srv.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.Metrics().WriteExposition(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := srv.ReloadCheckpoint(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"model_version\":%d}\n", srv.ModelVersion())
	})

	hs := &http.Server{Addr: addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		for s := range sig {
			if s == syscall.SIGHUP {
				// Hot-swap from the checkpoint file, keep serving.
				if err := srv.ReloadCheckpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "aptserve: reload:", err)
				} else {
					fmt.Printf("reloaded checkpoint (model version %d)\n", srv.ModelVersion())
				}
				continue
			}
			break
		}
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	}()
	fmt.Printf("aptserve listening on %s (%d workers)\n", addr, srv.NumWorkers())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptserve:", err)
		os.Exit(1)
	}
}
