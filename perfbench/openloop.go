package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Outcome is one dispatched operation's timing and verdict.
type Outcome struct {
	// Latency runs from the operation's due time to its completion, so a
	// stall is charged to every request queued behind it.
	Latency time.Duration
	// Lateness is how long after its due time the generator sent it.
	Lateness time.Duration
	Err      error
}

// runOpenLoop dispatches len(dues) operations, the i-th due at
// start+dues[i], from at most senders goroutines taking operations in due
// order. send(w, i) performs operation i on sender w and reports whether
// its answer was right. It returns one Outcome per operation, in index
// order. The call returns once every sender has ended.
func runOpenLoop(dues []time.Duration, senders int, send func(w, i int) error) []Outcome {
	out := make([]Outcome, len(dues))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				sleepUntil(due)
				sent := time.Now()
				err := send(w, i)
				done := time.Now()
				out[i] = Outcome{Latency: done.Sub(due), Lateness: sent.Sub(due), Err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sleepUntil returns at t or soon after. The Go runtime rounds timer waits
// to whole milliseconds of its network poller, so time.Sleep alone wakes
// about half a millisecond late; the last stretch is a nanosleep system
// call instead, which blocks only this goroutine's thread and wakes within
// the kernel's timer slack (tens of microseconds). A signal can cut the
// call short, so it repeats until t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
