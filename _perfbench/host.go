package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// fingerprint identifies the host and the code a result was measured
// on. Results compare only when CPU, NumCPU, GOMAXPROCS and GoVersion
// agree; Commit and Source name the code under test and are expected to
// differ between the two sides of a comparison.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the run starts inside a git work
	// tree, else "none".
	Commit string `json:"commit"`
	// Source is a SHA-256 over every go.mod and .go file of the checkout
	// (sorted paths and contents), so a checkout without git history is
	// still identified.
	Source string `json:"source"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; other
// systems report GOARCH alone.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module sources under root, skipping hidden
// directories such as the build directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// liveHeapBytes is the heap occupied by objects, live or not yet swept.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// refSpeed is about refKernel's speed on the 2-core Xeon VM the
// benchmark was calibrated on, in passes per second, at the time it was
// calibrated. A figure scaled to refSpeed reads about as it would on
// that host running at that speed.
const refSpeed = 800.0

// refElasticity is the exponent of the scale factor: how strongly the
// program's speed is taken to follow the reference kernel's. On the calibration host, over 160 epochs of train-ps-local
// in two periods an hour apart with different contention, each timed
// beside the kernel's memory and compute parts, the kernel with a fifth
// of its quiet-host time in the memory part and an exponent of 0.5 left
// the least spread of epoch rates (0.100 in log, against 0.134
// unscaled) and moved the two periods' levels apart by 2%, where the
// program's own moved by 3%. The memory part alone, with the same
// exponent, moved them apart by 16%.
const refElasticity = 0.5

// scaleFactor is the factor that scales a throughput measured between
// two timings of the reference kernel, at speeds a and b, to refSpeed:
// refSpeed over their mean, to the power refElasticity. A time is
// divided by it.
func scaleFactor(a, b float64) float64 { return math.Pow(refSpeed*2/(a+b), refElasticity) }

// refEvery is how often a timed training phase pauses, between epochs,
// to time the reference kernel.
const refEvery = time.Second

// speedLog times the reference kernel during a timed phase: at its
// start, then between units of work once refEvery has passed since the
// last timing, and at its end. Work done between timings i and i+1
// belongs to segment i and is scaled by that segment's factor.
type speedLog struct {
	k      *refKernel
	at     time.Time // end of the last timing
	speeds []float64
}

// mark times the kernel inside a child span of s.
func (l *speedLog) mark(s span) {
	s.timed("bench.reference", func() { l.speeds = append(l.speeds, l.k.speed()) })
	l.at = time.Now()
}

// due reports whether refEvery has passed since the last timing.
func (l *speedLog) due() bool { return time.Since(l.at) >= refEvery }

// segment is the index of the segment that work done now belongs to.
func (l *speedLog) segment() int { return len(l.speeds) - 1 }

// factor is segment i's scale factor; segment i must be closed.
func (l *speedLog) factor(i int) float64 { return scaleFactor(l.speeds[i], l.speeds[i+1]) }

// reportSetup reports setup_s: the median set-up time, each set-up
// timed in its own segment of l and scaled by it. The unscaled median
// is printed beside it.
func (b *bench) reportSetup(setups []time.Duration, l *speedLog) {
	scaled := make([]float64, len(setups))
	for i, d := range setups {
		scaled[i] = d.Seconds() / l.factor(i)
	}
	b.e2e.set("setup_s", "s", median(scaled))
	b.extra.set("setup_s.unscaled", "s", median(seconds(setups)))
}

// refKernel is a fixed reference workload of the benchmark's own, in
// two parts, each a random row gather over a table larger than the
// per-core caches. The memory part multiplies each of refGather rows
// by a vector, one multiply-add per float loaded, so other tenants'
// memory traffic slows it. The compute part multiplies each of
// refMatRows rows by a 128x32 matrix held in cache, as the program's
// gather-matmul does, so other tenants' compute on the same cores slows
// it. On a quiet host the memory part takes about a fifth of a pass.
// No change to the program moves its speed, so timing it next to a
// measurement shows how fast the host is running at that moment; on a
// shared host that drifts by tens of percent between minutes.
type refKernel struct {
	table []float32
	vec   []float32 // refDim
	mat   []float32 // refDim x refOut, row-major
	sink  []float32
}

const (
	refDim     = 128
	refOut     = 32
	refRows    = 1 << 15 // a 16 MiB table
	refGather  = 2048    // rows per pass, memory part
	refMatRows = 320     // rows per pass, compute part
	refPasses  = 48      // passes per goroutine per round, about 40 ms
	refRounds  = 5
)

// newRefKernel maps the kernel's table outside the Go heap, so that it
// neither counts in peak_heap_mb nor moves the measured program's
// collection pacing.
func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, 4*refRows*refDim, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's table: %w", err)
	}
	k := &refKernel{
		table: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), refRows*refDim),
		vec:   make([]float32, refDim),
		mat:   make([]float32, refDim*refOut),
		sink:  make([]float32, runtime.GOMAXPROCS(0)),
	}
	for i := range k.table {
		k.table[i] = float32(i%251) * 1e-3
	}
	for i := range k.vec {
		k.vec[i] = float32(i%7) * 1e-2
	}
	for i := range k.mat {
		k.mat[i] = float32(i%13) * 1e-3
	}
	return k, nil
}

// settledSpeed is speed after a forced collection, so that no
// collection cycle of the measured program overlaps the timing.
func (k *refKernel) settledSpeed() float64 {
	runtime.GC()
	return k.speed()
}

// speed runs refRounds rounds of the kernel on one goroutine per CPU and
// returns the median round's rate in passes per second.
func (k *refKernel) speed() float64 {
	workers := len(k.sink)
	rates := make([]float64, 0, refRounds)
	for r := 0; r < refRounds; r++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x := uint32(w*7919 + r + 1)
				var acc float32
				var out [refOut]float32
				for p := 0; p < refPasses; p++ {
					for g := 0; g < refGather; g++ {
						x = x*1664525 + 1013904223 // LCG; the top 15 bits pick a row
						row := k.table[int(x>>17)*refDim:][:refDim]
						for i, v := range row {
							acc += v * k.vec[i]
						}
					}
					for g := 0; g < refMatRows; g++ {
						x = x*1664525 + 1013904223
						row := k.table[int(x>>17)*refDim:][:refDim]
						for i, v := range row {
							m := k.mat[i*refOut:][:refOut]
							for j := range out {
								out[j] += v * m[j]
							}
						}
					}
				}
				k.sink[w] = acc + out[0]
			}(w)
		}
		wg.Wait()
		rates = append(rates, float64(refPasses*workers)/time.Since(start).Seconds())
	}
	return median(rates)
}
