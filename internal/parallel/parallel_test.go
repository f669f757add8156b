package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// withBudget runs fn under a temporary budget and restores the old limit.
func withBudget(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Budget()
	SetBudget(n)
	defer SetBudget(old)
	fn()
}

func TestTryAcquireRespectsLimit(t *testing.T) {
	withBudget(t, 3, func() {
		if got := TryAcquire(2); got != 2 {
			t.Fatalf("TryAcquire(2) = %d, want 2", got)
		}
		if got := TryAcquire(5); got != 1 {
			t.Fatalf("TryAcquire(5) = %d, want remaining 1", got)
		}
		if got := TryAcquire(1); got != 0 {
			t.Fatalf("TryAcquire on spent budget = %d, want 0", got)
		}
		Release(3)
		if got := InUse(); got != 0 {
			t.Fatalf("InUse after release = %d, want 0", got)
		}
	})
}

func TestTryAcquireZeroAndNegative(t *testing.T) {
	withBudget(t, 2, func() {
		if TryAcquire(0) != 0 || TryAcquire(-1) != 0 {
			t.Fatal("non-positive requests must grant nothing")
		}
		Release(0)
		Release(-5) // must not corrupt the pool
		if got := TryAcquire(2); got != 2 {
			t.Fatalf("budget corrupted: TryAcquire(2) = %d", got)
		}
		Release(2)
	})
}

func TestPoolRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withBudget(t, 8, func() {
				const n = 100
				var counts [n]atomic.Int32
				err := NewPool(workers).Run(n, func(i int) error {
					counts[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("item %d ran %d times", i, c)
					}
				}
			})
		})
	}
}

func TestPoolReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		withBudget(t, 4, func() {
			err := NewPool(workers).Run(10, func(i int) error {
				switch i {
				case 3:
					return errA
				case 7:
					return errB
				}
				return nil
			})
			if !errors.Is(err, errA) {
				t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, errA)
			}
		})
	}
}

func TestPoolSequentialFailsFast(t *testing.T) {
	// With one worker the pool must behave like the historical loop:
	// stop at the first error without touching later items.
	ran := 0
	err := NewPool(1).Run(10, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Fatalf("sequential pool ran %d items (err %v), want fail-fast after 3", ran, err)
	}
}

func TestPoolReleasesBudget(t *testing.T) {
	withBudget(t, 4, func() {
		pool := NewPool(4)
		for round := 0; round < 3; round++ {
			if err := pool.Run(16, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := InUse(); got != 0 {
			t.Fatalf("pool leaked %d budget tokens", got)
		}
	})
}

func TestPoolExhaustedBudgetDegradesSequential(t *testing.T) {
	withBudget(t, 0, func() {
		var maxConcurrent, cur atomic.Int32
		err := NewPool(8).Run(32, func(int) error {
			c := cur.Add(1)
			if c > maxConcurrent.Load() {
				maxConcurrent.Store(c)
			}
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxConcurrent.Load() != 1 {
			t.Fatalf("spent budget still ran %d items concurrently", maxConcurrent.Load())
		}
	})
}

func TestNewPoolNormalises(t *testing.T) {
	if NewPool(0).Workers() != 1 || NewPool(-3).Workers() != 1 {
		t.Fatal("workers < 1 must normalise to 1")
	}
	if NewPool(1).Parallel() || !NewPool(2).Parallel() {
		t.Fatal("Parallel() misreports")
	}
}

func TestSetBudgetClamps(t *testing.T) {
	old := Budget()
	defer SetBudget(old)
	SetBudget(-7)
	if Budget() != 0 {
		t.Fatalf("SetBudget(-7) stored %d, want 0", Budget())
	}
}

// TestGroupRunsEveryItemOnce checks Do's basic contract at several worker
// counts, including the degraded inline path.
func TestGroupRunsEveryItemOnce(t *testing.T) {
	for _, budget := range []int{0, 1, 3} {
		withBudget(t, budget, func() {
			var g Group
			g.Acquire(4)
			defer g.Release()
			const n = 100
			var counts [n]atomic.Int64
			g.Do(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("budget %d: item %d ran %d times", budget, i, got)
				}
			}
		})
	}
}

// TestGroupDegradesInlineAtZeroBudget pins that a starved group runs the
// batch on the caller goroutine — and therefore allocation-free, the
// property the sharded world-step degraded mode relies on.
func TestGroupDegradesInlineAtZeroBudget(t *testing.T) {
	withBudget(t, 0, func() {
		var g Group
		g.Acquire(8)
		defer g.Release()
		if w := g.Workers(); w != 1 {
			t.Fatalf("Workers = %d with zero budget, want 1", w)
		}
		sum := 0
		fn := func(i int) { sum += i } // caller-only: no races possible
		avg := testing.AllocsPerRun(100, func() {
			sum = 0
			g.Do(10, fn)
		})
		if sum != 45 {
			t.Fatalf("sum = %d, want 45", sum)
		}
		if avg > 0 {
			t.Fatalf("degraded Do allocates %v per batch, want 0", avg)
		}
	})
}

// TestGroupReleaseReturnsTokens checks Acquire/Release round-trip the
// budget so a stepping loop cannot leak tokens.
func TestGroupReleaseReturnsTokens(t *testing.T) {
	withBudget(t, 4, func() {
		var g Group
		g.Acquire(5)
		if got := g.Workers(); got != 5 {
			t.Fatalf("Workers = %d, want 5 (4 tokens + caller)", got)
		}
		if free := Budget() - InUse(); free != 0 {
			t.Fatalf("free tokens = %d during hold, want 0", free)
		}
		g.Release()
		if InUse() != 0 {
			t.Fatalf("InUse = %d after Release, want 0", InUse())
		}
	})
}

// TestGroupResultIndependentOfWorkers runs the same deterministic batch at
// several worker counts and checks the merged-by-index outputs are
// identical — the Do determinism contract.
func TestGroupResultIndependentOfWorkers(t *testing.T) {
	const n = 64
	run := func(budget int) [n]int {
		var out [n]int
		withBudget(t, budget, func() {
			var g Group
			g.Acquire(8)
			defer g.Release()
			g.Do(n, func(i int) { out[i] = i * i })
		})
		return out
	}
	want := run(0)
	for _, budget := range []int{1, 2, 7} {
		if got := run(budget); got != want {
			t.Fatalf("budget %d produced different outputs", budget)
		}
	}
}

// TestReplicateOrderAndSharedWorld: results come back in run order at any
// worker count, and a parallel batch refuses a world handed to two runs
// while a sequential one accepts it.
func TestReplicateOrderAndSharedWorld(t *testing.T) {
	withBudget(t, 3, func() {
		for _, workers := range []int{1, 4} {
			worlds := make([]*int, 6)
			for i := range worlds {
				worlds[i] = new(int)
			}
			got, err := Replicate(workers, len(worlds),
				func(r int) (*int, error) { return worlds[r], nil },
				func(w *int, r int) (int, error) { return r * r, nil })
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for r, v := range got {
				if v != r*r {
					t.Fatalf("workers=%d: result %d = %d, want %d", workers, r, v, r*r)
				}
			}
			shared := new(int)
			_, err = Replicate(workers, 3,
				func(int) (*int, error) { return shared, nil },
				func(*int, int) (int, error) { return 0, nil })
			if (workers > 1) != (err != nil) {
				t.Fatalf("workers=%d with one shared world: err = %v", workers, err)
			}
		}
	})
}
