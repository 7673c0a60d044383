package main

import (
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/workload"
)

// schedule draws the due times of one open-loop phase from the seed, in
// the style of the repository's load harness: session starts from the
// diurnal NHPP (loadgen.DefaultShape compressed onto the phase), a
// geometric number of requests per session, and exponential think gaps
// between a session's requests. rate is the target mean request rate; the
// session rate is rate/meanRequests. The result is sorted and a pure
// function of (seed, label, rate, dur, meanRequests, think).
func schedule(seed uint64, label string, rate float64, dur time.Duration, meanRequests float64, think time.Duration) []time.Duration {
	stream := stats.NewStream(seed, "perfbench/"+label)
	shape := loadgen.DefaultShape
	mean := 0.0
	for _, v := range shape {
		mean += v
	}
	mean /= float64(len(shape))
	sessionRate := rate / meanRequests
	rates := make([]float64, len(shape))
	for i, v := range shape {
		rates[i] = sessionRate * v / mean
	}
	horizon := dur.Seconds()
	arrivals := workload.NewNHPP(rates, horizon/float64(len(rates)), true)

	var dues []time.Duration
	cont := 1 - 1/meanRequests
	for t := arrivals.Next(stream); t < horizon; t += arrivals.Next(stream) {
		at := t
		dues = append(dues, seconds(at))
		for stream.Bernoulli(cont) {
			at += stream.ExpFloat64() * think.Seconds()
			if at >= horizon {
				break
			}
			dues = append(dues, seconds(at))
		}
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// pickWeighted draws an index with probability proportional to ws.
func pickWeighted(s *stats.Stream, ws []int) int {
	total := 0
	for _, w := range ws {
		total += w
	}
	x := s.IntN(total)
	for i, w := range ws {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(ws) - 1
}
