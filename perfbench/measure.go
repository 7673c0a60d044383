package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and the number of samples strictly beyond its rank. xs is sorted in
// place.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// tailPercentile reports the fixed tail percentile p of xs and the
// number of samples beyond it, refusing it unless there are at least ten:
// with fewer, the value is one of the few slowest samples and says nothing
// stable about the tail. xs is sorted in place.
func tailPercentile(xs []float64, p float64) (float64, int, error) {
	v, beyond := percentile(xs, p)
	if beyond < 10 {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d samples beyond it (need >= 10)", p, len(xs), beyond)
	}
	return v, beyond, nil
}

// setupBlockReps is how many set-ups one timing block runs back to back.
const setupBlockReps = 5

// timeSetups runs setup setupBlockReps times and appends the seconds each
// reports it took to samples. A workload times one block before it starts
// and one after each of its rounds or batches: the samples of one block
// share the host's state of that moment, so blocks spread over the run
// keep one noisy moment from deciding the median.
func timeSetups(samples []float64, setup func() (time.Duration, error)) ([]float64, error) {
	for i := 0; i < setupBlockReps; i++ {
		d, err := setup()
		if err != nil {
			return samples, err
		}
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default), so
// spreads computed here match those of the usual Python tooling.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j/4*(n+1), 1-based, clamped to the sample range.
		pos := float64(j) * float64(n+1) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+system CPU time (RUSAGE_SELF): the
// service, the generator and every simulation run in this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// stealTicks reads the host's stolen CPU time (the steal column of
// /proc/stat) and the total, in clock ticks.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memSample is the part of runtime.MemStats the traced run differences.
type memSample struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseNs             uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (b memSample) sub(a memSample) memSample {
	return memSample{
		mallocs:    b.mallocs - a.mallocs,
		totalAlloc: b.totalAlloc - a.totalAlloc,
		numGC:      b.numGC - a.numGC,
		pauseNs:    b.pauseNs - a.pauseNs,
	}
}
