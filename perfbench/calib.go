package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. The benchmark runs on shared hosts whose speed
// drifts by tens of percent between runs (stolen time, a busy sibling
// hyperthread, a neighbour thrashing the caches), more than the bounds a
// change is judged by. Every reported time is therefore scaled to a
// reference host speed: next to the measured work the benchmark times a
// fixed kernel, and divides the work's times by how much slower than on
// the reference host the kernel ran (factor, cpuFactor). The kernel is the
// benchmark's own code and calls nothing in the program, so a change to
// the program moves the scaled figures exactly as much as the raw ones,
// while a slower or faster host moves kernel and work alike and cancels,
// as far as the kernel slows the way the work does. The raw figures and
// every kernel time go to the provenance line.

// calibRefSeconds and calibRefCPUSeconds are the kernel's wall and
// process CPU time on the reference host (a 2-vCPU Intel Xeon VM). A
// scaled time reads as the time the work would have taken there.
const (
	calibRefSeconds    = 0.014
	calibRefCPUSeconds = 0.028
)

const (
	calibWords  = 1 << 20 // 4 MiB of uint32: the chase leaves L2 but mostly stays in L3
	calibSteps  = 1 << 12 // pointer-chase steps per chunk
	calibMath   = 1 << 15 // floating-point and hashing iterations per chunk
	calibChunks = 64      // chunks per kernel run
	calibWarm   = 2       // untimed kernel runs before each calibration
	calibReps   = 5       // timed kernel runs per calibration; the median is kept
)

// calibRing is a single random cycle through calibWords slots, drawn
// once from a fixed seed by Sattolo's algorithm, so every run chases the
// same path: calibRing[i] is the slot after i.
var calibRing = func() []uint32 {
	ring := make([]uint32, calibWords)
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}()

// calibSink keeps the kernel's results live so the compiler cannot drop
// the work.
var calibSink struct {
	sync.Mutex
	v uint64
}

// kernel is one chunk of the calibration work: a dependent walk through
// calibRing (memory latency) and a chain of multiplies, divisions and
// integer mixing (core speed). It allocates nothing, so the program's heap
// and collector do not change what it costs.
func kernel(start uint32) uint64 {
	p := start % calibWords
	for i := 0; i < calibSteps; i++ {
		p = calibRing[p]
	}
	h, f := uint64(p)|1, 1.0
	for i := 0; i < calibMath; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		f = f*1.0000001 + float64(h&0xff)/(f+3)
	}
	return h ^ uint64(f)
}

// calibrate runs calibChunks kernel chunks on n goroutines that take
// them one at a time, as the pool hands out the measured work, so a core
// that runs slow costs the kernel what it costs the work: the fast core
// takes more chunks. It does so calibWarm times untimed, to bring
// calibRing back into the caches the measured work evicted it from and let
// the cores settle, then calibReps times, and returns the median wall and
// process CPU time in seconds.
func calibrate(n int) (wall, cpu float64) {
	times := make([]float64, 0, calibReps)
	cpus := make([]float64, 0, calibReps)
	for r := -calibWarm; r < calibReps; r++ {
		var wg sync.WaitGroup
		var next atomic.Int64
		c0, t0 := cpuSeconds(), time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var v uint64
				for c := next.Add(1); c <= calibChunks; c = next.Add(1) {
					v += kernel(uint32(c*7919) + uint32(r))
				}
				calibSink.Lock()
				calibSink.v += v
				calibSink.Unlock()
			}()
		}
		wg.Wait()
		if r >= 0 {
			times = append(times, time.Since(t0).Seconds())
			cpus = append(cpus, cpuSeconds()-c0)
		}
	}
	sort.Float64s(times)
	sort.Float64s(cpus)
	return times[len(times)/2], cpus[len(cpus)/2]
}

// speedLog records the kernel times of one run. A workload calibrates
// once before it starts and once per round or batch, so the calibrations
// sample the same stretches of the host's weather as the work; times are
// scaled by the run's median calibration, whose noise over a dozen
// calibrations is far below the host's drift from run to run.
type speedLog struct {
	n     int
	times []float64 // kernel wall seconds, one per calibration
	cpus  []float64 // kernel CPU seconds, one per calibration
}

// newSpeedLog starts a log with a first calibration.
func newSpeedLog(n int) *speedLog {
	s := &speedLog{n: n}
	s.mark()
	return s
}

// mark times the kernel now, after a full collection, so a collection
// the measured work left running does not share the cores with it.
func (s *speedLog) mark() {
	runtime.GC()
	wall, cpu := calibrate(s.n)
	s.times = append(s.times, wall)
	s.cpus = append(s.cpus, cpu)
}

// factor is how much slower than the reference host this run's host was
// for wall time: the geometric mean of the median kernel wall time over
// calibRefSeconds and of cpuFactor. When the host slows every core alike,
// the two agree. When it takes one core away, the kernel, which keeps
// every core busy, loses more wall time than work that uses the cores
// less fully (the sharded runs and the serving passes keep 1.5–1.8 of two
// busy), and no CPU time at all; on the reference host with a CPU-bound
// process taking one of its two vCPUs the kernel's wall time rose 1.84×,
// its CPU time 1.0×, and the serving passes' wall time 1.29–1.44×.
func (s *speedLog) factor() float64 {
	return math.Sqrt(median(s.times) / calibRefSeconds * s.cpuFactor())
}

// cpuFactor is factor for process CPU time.
func (s *speedLog) cpuFactor() float64 { return median(s.cpus) / calibRefCPUSeconds }
