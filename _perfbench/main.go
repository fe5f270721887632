// Command perfbench is the repository benchmark. One invocation runs
// one named workload for a fixed wall-clock budget, checks the
// program's outputs, and prints every metric by name with its unit.
// The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"setup_s": {"value": 3.1, "unit": "s"}, ...}}
//
// With -trace 0 the summary holds the end-to-end metrics, measured with
// no instrumentation inside the timed loop. With -trace 1 it holds the
// per-layer metrics: spans the benchmark records around calls into each
// layer's exported functions, the program's own counters, and a replay
// that drives each layer's entry point with the workload's inputs.
// Every run also writes a record (host fingerprint, all metrics,
// workload-specific figures) and, when traced, its spans, under -out.
//
// Usage, from the repository root (run.py builds and invokes this):
//
//	perfbench -workload train-ps-local -seed 1 -seconds 22 -trace 0
//
// See README.md for the workloads, the metric glossary and the
// layer-to-metric predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"train-ps-local": trainPSLocal,
	"train-fs-tcp2":  trainFSTCP2,
	"serve-ps-zipf":  servePSZipf,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: train-ps-local, train-fs-tcp2 or serve-ps-zipf")
		seed    = flag.Uint64("seed", 1, "input seed: the workload's graph, features and request stream are generated from it")
		seconds = flag.Float64("seconds", 20, "wall-clock budget of the timed phase")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run and replay; 0 reports end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for run records and span files")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{workload: *name, seed: *seed, seconds: *seconds, scratch: scratch}
	if *trace == 1 {
		b.tr = newTracer()
	}
	b.root = b.tr.root(*name)
	host := hostFingerprint()
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# host cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Source)

	if err := runWorkload(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	b.root.end()
	b.extra.set("fail_ratio", "ratio", float64(b.failed)/float64(max(b.attempted, 1)))

	report := b.e2e
	if b.tr != nil {
		report = b.layer
	}
	for _, m := range report {
		fmt.Printf("%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range b.extra {
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range b.problems {
		fmt.Println("FAILED:", p)
	}
	if b.tr != nil {
		printSelfTimes(b.tr.selfTimes())
	}

	sum := summary{Correct: !b.incorrect, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, m := range report {
		sum.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	if err := b.writeRecord(*out, host, sum); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one run's state: its inputs, tracer, operation counts and
// the metrics it reports.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	scratch  string // per-run directory for snapshots, removed on exit

	tr   *tracer // nil when untraced
	root span

	attempted, failed int64
	incorrect         bool
	problems          []string

	e2e   metricSet // the -trace 0 summary
	layer metricSet // the -trace 1 summary
	extra metricSet // workload-specific figures, printed and recorded only
}

// op counts one attempted operation; a false ok counts it as failed.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// check is op for a correctness check: a failure also makes the run
// incorrect.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !b.op(ok, format, args...) {
		b.incorrect = true
	}
	return ok
}

type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type metricSet []metric

func (m *metricSet) set(name, unit string, v float64) {
	*m = append(*m, metric{Name: name, Unit: unit, Value: v})
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the per-run file the compare step reads.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Host     fingerprint `json:"host"`
	Summary  summary     `json:"summary"`
	Extra    metricSet   `json:"extra"`
	Problems []string    `json:"problems"`
	Spans    string      `json:"spans,omitempty"`
}

func (b *bench) writeRecord(dir string, host fingerprint, sum summary) error {
	base := fmt.Sprintf("%s_seed%d_trace%d", b.workload, b.seed, boolInt(b.tr != nil))
	rec := record{Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.tr != nil,
		Host: host, Summary: sum, Extra: b.extra, Problems: b.problems}
	if b.tr != nil {
		rec.Spans = base + "_spans.json"
		if err := b.tr.writeFile(filepath.Join(dir, rec.Spans)); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(blob, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts wall durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// medianMs is the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 { return 1e3 * median(seconds(ds)) }

// heapPeak samples the live heap on a ticker and keeps the maximum:
// the peak in-use heap over the interval between start and stop.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := liveHeapBytes(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMiB ends sampling and returns the peak in MiB.
func (h *heapPeak) stopMiB() float64 {
	close(h.stop)
	<-h.done
	if v := liveHeapBytes(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// settle collects garbage left by input generation and set-up, so the
// timed phase starts from the live working set alone.
func settle() { runtime.GC() }
