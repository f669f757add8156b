// Package parallel provides the run-level concurrency machinery shared by
// the replication executors (mapping.RunMany, routing.RunMany) and the
// parameter-point loops of cmd/sweep and cmd/figures: a deterministic
// bounded worker pool and a process-wide concurrency budget.
//
// Determinism contract: a Pool only runs *independent* items concurrently
// and makes no scheduling decision observable to the work function — item
// i always receives the same inputs regardless of worker count, every item
// runs exactly once, and the caller merges outputs by item index. A batch
// therefore produces bit-identical results whether the pool has 1 worker
// or runtime.NumCPU() — the same contract sim.Engine pins for agents,
// lifted one level up to whole runs.
//
// The budget keeps the two levels from oversubscribing the machine: every
// extra goroutine (beyond the caller, which always participates) must be
// claimed from one shared token pool sized to GOMAXPROCS-1. Outer pools
// claim tokens for the lifetime of their batch, so they win over the inner
// per-agent engines, which claim per phase and fall back to sequential
// execution when the budget is spent — the Amdahl-favoured priority, since
// replications scale perfectly while agent phases do not.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// budget is the process-wide token pool. limit is the configured number of
// extra worker goroutines allowed at once; inUse counts tokens currently
// claimed.
var (
	limit atomic.Int64
	inUse atomic.Int64
)

func init() {
	SetBudget(runtime.GOMAXPROCS(0) - 1)
}

// SetBudget sets the number of extra worker goroutines (beyond each
// blocked caller) the process may run at once. n < 0 is clamped to 0,
// which forces every executor in the process to run sequentially.
// Outstanding claims are unaffected. Intended for tests and for runners
// that want to pin total parallelism explicitly.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Budget returns the configured token limit.
func Budget() int { return int(limit.Load()) }

// TryAcquire claims up to n tokens from the budget and returns how many it
// got (possibly 0). It never blocks: callers degrade to fewer workers —
// ultimately to the caller goroutine alone — instead of queueing.
func TryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		used := inUse.Load()
		avail := limit.Load() - used
		if avail <= 0 {
			return 0
		}
		grant := int64(n)
		if grant > avail {
			grant = avail
		}
		if inUse.CompareAndSwap(used, used+grant) {
			return int(grant)
		}
	}
}

// Release returns n tokens claimed with TryAcquire.
func Release(n int) {
	if n > 0 {
		inUse.Add(-int64(n))
	}
}

// InUse returns the number of tokens currently claimed.
func InUse() int { return int(inUse.Load()) }

// Pool executes batches of independent work items on up to Workers
// goroutines, claiming budget tokens for the duration of each batch.
type Pool struct {
	workers int
}

// NewPool returns a pool that runs batches on up to workers goroutines
// (the caller counts as one). workers < 1 is normalised to 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the configured worker cap.
func (p *Pool) Workers() int { return p.workers }

// Parallel reports whether the pool may use more than one goroutine.
func (p *Pool) Parallel() bool { return p.workers > 1 }

// Group is the inner-loop counterpart of Pool: a reusable fan-out for
// per-step data parallelism (e.g. the world's spatial shards), built so a
// hot path can dispatch the same batch shape every step without
// allocating. One Acquire claims budget tokens for a span of Do calls
// (typically the phases of one step) and Release returns them; with no
// tokens granted — the budget spent by outer run-level pools, which claim
// for whole batches and therefore win — Do degrades to an inline
// sequential loop, exactly the engine rule run-level parallelism follows.
//
// Do carries the same determinism contract as Pool.Run: items must be
// mutually independent, every item runs exactly once, and no scheduling
// decision is observable to fn — so results are bit-identical whether the
// group got 0 extra workers or many.
//
// A Group is not safe for concurrent use; it belongs to one stepping loop.
type Group struct {
	extra int // tokens currently claimed
	n     int
	fn    func(int)
	next  atomic.Int64
	wg    sync.WaitGroup
}

// Acquire claims up to workers-1 budget tokens for the coming Do calls.
// Call Release when the span ends; Acquire on a group already holding
// tokens is a bug.
func (g *Group) Acquire(workers int) {
	g.extra = TryAcquire(workers - 1)
}

// Workers returns how many goroutines Do will use (claimed tokens + the
// caller).
func (g *Group) Workers() int { return g.extra + 1 }

// Release returns the tokens claimed by Acquire.
func (g *Group) Release() {
	Release(g.extra)
	g.extra = 0
}

// Do invokes fn(i) for every i in [0, n) exactly once and blocks until all
// calls return, fanning out over the claimed workers. The group's own
// fields back the dispatch and workers are spawned as bound methods, so a
// steady-state Do is allocation-free.
func (g *Group) Do(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	extra := g.extra
	if extra > n-1 {
		extra = n - 1
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g.n = n
	g.fn = fn
	g.next.Store(0)
	g.wg.Add(extra)
	for w := 0; w < extra; w++ {
		go g.work()
	}
	g.drain()
	g.wg.Wait()
	g.fn = nil
}

// drain is the caller's share of a Do batch.
func (g *Group) drain() {
	n := int64(g.n)
	for {
		i := g.next.Add(1) - 1
		if i >= n {
			return
		}
		g.fn(int(i))
	}
}

// work is one spawned worker's share of a Do batch.
func (g *Group) work() {
	defer g.wg.Done()
	g.drain()
}

// Run invokes fn(i) for every i in [0, n) exactly once and blocks until
// all calls return. Calls MUST be mutually independent: execution order is
// unspecified in parallel mode. Every item runs even if another item
// fails, so the set of executed calls never depends on scheduling; the
// returned error is the lowest-index failure, matching what a sequential
// loop that collected all errors would report.
//
// The pool claims up to workers-1 budget tokens for the duration of the
// batch and the caller participates as a worker, so an exhausted budget
// degrades Run to a plain sequential loop.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	extra := 0
	if workers > 1 {
		extra = TryAcquire(workers - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	defer Release(extra)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replicate is the replication executor behind mapping.RunMany and
// routing.RunMany: it runs run(worldFor(r), r) for every r in [0, runs) on
// a pool of up to workers goroutines and returns the results in run order,
// so a reduction over them is bit-identical at any worker count. Parallel
// runs mutate their worlds, so with more than one worker Replicate fails
// when worldFor hands the same world to two runs instead of racing on it.
func Replicate[W comparable, R any](workers, runs int, worldFor func(run int) (W, error), run func(w W, r int) (R, error)) ([]R, error) {
	pool := NewPool(workers)
	results := make([]R, runs)
	var mu sync.Mutex
	seen := make(map[W]int)
	err := pool.Run(runs, func(r int) error {
		w, err := worldFor(r)
		if err != nil {
			return err
		}
		if pool.Parallel() {
			mu.Lock()
			prev, dup := seen[w]
			seen[w] = r
			mu.Unlock()
			if dup {
				return fmt.Errorf("parallel replication needs a fresh world per run: worldFor returned the same world for runs %d and %d", prev, r)
			}
		}
		results[r], err = run(w, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
