package cluster

import (
	"sync"

	"repro/internal/desim"
)

// Arena is the allocation pool of one shard of a simulation run: the
// discrete-event simulator (whose event storage dominates a run's
// allocations) plus freelists for the request and jobRef objects churned
// on the dispatch hot path. Every run allocates through one arena per
// shard — its own, or one borrowed from Config.Arenas — so a completed
// request and its jobRefs are recycled by later admissions of the same
// run; a pooled arena also carries its grown storage into the next run.
//
// Reuse never changes results: the simulator is Reset to a state
// indistinguishable from a fresh one (clock, sequence numbers and
// counters restart at zero), and recycled requests and jobRefs are
// zeroed before they are handed out again.
//
// An arena is single-run state — never share one between concurrent
// runs. ArenaPool hands each concurrent run its own.
type Arena struct {
	sim      *desim.Simulator
	requests []*request
	jobRefs  []*jobRef
}

// NewArena returns an empty arena ready for its first run.
func NewArena() *Arena {
	return &Arena{sim: desim.New()}
}

func (a *Arena) getRequest() *request {
	if n := len(a.requests); n > 0 {
		req := a.requests[n-1]
		a.requests[n-1] = nil
		a.requests = a.requests[:n-1]
		return req
	}
	return &request{}
}

func (a *Arena) getJobRef() *jobRef {
	if n := len(a.jobRefs); n > 0 {
		j := a.jobRefs[n-1]
		a.jobRefs[n-1] = nil
		a.jobRefs = a.jobRefs[:n-1]
		return j
	}
	return &jobRef{}
}

// recycleRequest returns a completed request and its job references to
// the freelists. Only fully drained requests may be recycled: every
// jobRef must already be off its station's heap. Requests lost to host
// failures are deliberately left to the garbage collector — their refs
// may still be reachable from in-flight bookkeeping.
func (a *Arena) recycleRequest(req *request) {
	for i, j := range req.refs {
		*j = jobRef{}
		a.jobRefs = append(a.jobRefs, j)
		req.refs[i] = nil
	}
	*req = request{refs: req.refs[:0]}
	a.requests = append(a.requests, req)
}

// ArenaPool shares arenas across sequential runs while keeping each
// concurrent run on its own arena. The zero value is not usable; call
// NewArenaPool. Returned arenas have their simulator reset eagerly, so a
// pooled arena is always ready to run.
type ArenaPool struct {
	p sync.Pool
}

// NewArenaPool returns an empty pool; arenas are created on demand.
func NewArenaPool() *ArenaPool {
	ap := &ArenaPool{}
	ap.p.New = func() any { return NewArena() }
	return ap
}

// Get borrows an arena, creating one if none is free.
func (ap *ArenaPool) Get() *Arena { return ap.p.Get().(*Arena) }

// Put resets the arena's simulator and returns it to the pool.
func (ap *ArenaPool) Put(a *Arena) {
	a.sim.Reset()
	ap.p.Put(a)
}
