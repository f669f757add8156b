package knowledge

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// refVisits is the hash-map visit memory the dense Visits replaced, kept
// as the referee its equivalence fuzzer and benchmarks compare against.
type refVisits struct {
	capacity int
	last     map[NodeID]int
}

func newRefVisits(capacity int) *refVisits {
	return &refVisits{capacity: capacity, last: make(map[NodeID]int)}
}

func (v *refVisits) Len() int { return len(v.last) }

func (v *refVisits) Record(u NodeID, step int) {
	if _, ok := v.last[u]; !ok && v.capacity > 0 && len(v.last) >= v.capacity {
		v.evictOldest()
	}
	if prev, ok := v.last[u]; !ok || step > prev {
		v.last[u] = step
	}
}

func (v *refVisits) Last(u NodeID) (int, bool) {
	step, ok := v.last[u]
	return step, ok
}

// evictOldest removes the entry with the smallest step, ties by smallest
// node ID, whatever the map iteration order.
func (v *refVisits) evictOldest() {
	first := true
	var victim NodeID
	victimStep := 0
	for u, s := range v.last {
		if first || s < victimStep || (s == victimStep && u < victim) {
			victim, victimStep, first = u, s, false
		}
	}
	if !first {
		delete(v.last, victim)
	}
}

// refMergeScratch is the referee MergeAll: a hash union, always sorted
// freshest-first (ties by node ID), truncated to each member's capacity.
type refMergeScratch struct {
	union   map[NodeID]int
	entries []visitRec
	changed []int
}

func (s *refMergeScratch) MergeAll(ms []*refVisits) []int {
	if s.union == nil {
		s.union = make(map[NodeID]int)
	} else {
		clear(s.union)
	}
	for _, m := range ms {
		for u, st := range m.last {
			if p, ok := s.union[u]; !ok || st > p {
				s.union[u] = st
			}
		}
	}
	entries := s.entries[:0]
	for u, st := range s.union {
		entries = append(entries, visitRec{node: u, step: st})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].step != entries[j].step {
			return entries[i].step > entries[j].step
		}
		return entries[i].node < entries[j].node
	})
	s.entries = entries
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	for i, m := range ms {
		kept := entries
		if m.capacity > 0 && len(kept) > m.capacity {
			kept = kept[:m.capacity]
		}
		changed[i] = 0
		for _, e := range kept {
			if p, ok := m.last[e.node]; !ok || e.step > p {
				changed[i]++
			}
		}
		clear(m.last)
		for _, e := range kept {
			m.last[e.node] = e.step
		}
	}
	return changed
}

// visitMem is the method set the benchmarks drive on both memories.
type visitMem interface {
	Record(u NodeID, step int)
}

// visitImpl names one visit-memory implementation for the benchmarks.
type visitImpl[V visitMem] struct {
	name     string
	make     func(capacity int) V
	newMerge func() func([]V) []int
}

var (
	denseImpl = visitImpl[*Visits]{"dense", NewVisits, func() func([]*Visits) []int {
		var s MergeScratch
		return s.MergeAll
	}}
	refImpl = visitImpl[*refVisits]{"ref", newRefVisits, func() func([]*refVisits) []int {
		var s refMergeScratch
		return s.MergeAll
	}}
)

// mergeWorkload is one meeting shape: members agents on an n-node network
// with the given visit capacity (0 = unbounded). With window set, the
// group is a window of members agents sliding one place per meeting over
// a ring of window agents, so every meeting mixes members last merged
// together with one last merged elsewhere; otherwise the same group meets
// every time.
type mergeWorkload struct {
	name                         string
	members, n, capacity, window int
}

var mergeWorkloads = []mergeWorkload{
	{"clump40-n300", 40, 300, 0, 0},
	{"window40of80-n300", 40, 300, 0, 80},
	{"group100-n250-cap32", 100, 250, 32, 0},
}

// mergeLoop builds a warmed-up meeting group and returns one iteration of
// its steady state: every agent records one fresh visit, then the group
// merges.
func mergeLoop[V visitMem](impl visitImpl[V], wl mergeWorkload) func() {
	s := rng.New(1)
	ms := make([]V, max(wl.members, wl.window))
	for i := range ms {
		ms[i] = impl.make(wl.capacity)
		for step := 0; step < wl.n; step++ {
			ms[i].Record(NodeID(s.Intn(wl.n)), step)
		}
	}
	ring := slices.Concat(ms, ms)
	merge := impl.newMerge()
	step, off := wl.n, 0
	iter := func() {
		step++
		for _, m := range ms {
			m.Record(NodeID(s.Intn(wl.n)), step)
		}
		merge(ring[off : off+wl.members])
		if wl.window > 0 {
			off = (off + 1) % wl.window
		}
	}
	// A sliding window reaches every agent, and its buffers stop growing,
	// only after two laps of the ring.
	for i := 0; i < 10+2*wl.window; i++ {
		iter()
	}
	return iter
}

func benchMergeAll[V visitMem](b *testing.B, impl visitImpl[V], wl mergeWorkload) {
	b.Run(wl.name+"/impl="+impl.name, func(b *testing.B) {
		iter := mergeLoop(impl, wl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iter()
		}
	})
}

// BenchmarkMergeAll times one meeting of a cooperating group, dense memory
// against the referee: a 40-agent unbounded clump on the 300-node mapping
// network (Fig 5's largest team, which merges from its logs), a 40-agent
// window sliding over 80 such agents (every meeting builds the full
// union), and a 100-agent group with 32-record memories on the 250-node
// MANET (Fig 8/11's bounded histories, whose union truncates).
func BenchmarkMergeAll(b *testing.B) {
	for _, wl := range mergeWorkloads {
		benchMergeAll(b, denseImpl, wl)
		benchMergeAll(b, refImpl, wl)
	}
}

func benchRecordBounded[V visitMem](b *testing.B, impl visitImpl[V]) {
	b.Run("cap32-n250/impl="+impl.name, func(b *testing.B) {
		const n = 250
		s := rng.New(1)
		v := impl.make(32)
		for step := 0; step < n; step++ {
			v.Record(NodeID(s.Intn(n)), step)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Record(NodeID(s.Intn(n)), n+i)
		}
	})
}

// BenchmarkVisitsRecordBounded times one Record into a full 32-record
// memory on the 250-node MANET, where most visits evict.
func BenchmarkVisitsRecordBounded(b *testing.B) {
	benchRecordBounded(b, denseImpl)
	benchRecordBounded(b, refImpl)
}

// TestMergeAllDeltaPath checks that a persisting unbounded clump, each
// member recording one node per step, merges from its logs every time
// after the first, with the referee's changed counts and memories.
func TestMergeAllDeltaPath(t *testing.T) {
	const members, n, steps = 40, 300, 200
	s := rng.New(3)
	dense := make([]*Visits, members)
	ref := make([]*refVisits, members)
	for i := range dense {
		dense[i], ref[i] = NewVisits(0), newRefVisits(0)
	}
	var ds MergeScratch
	var rs refMergeScratch
	for step := 0; step < steps; step++ {
		for i := range dense {
			u := NodeID(s.Intn(n))
			dense[i].Record(u, step)
			ref[i].Record(u, step)
		}
		got, want := ds.MergeAll(dense), rs.MergeAll(ref)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: changed %v, referee %v", step, got, want)
		}
		if ds.deltas != step {
			t.Fatalf("step %d: %d merges took the delta path, want %d", step, ds.deltas, step)
		}
	}
	for i := range dense {
		if dense[i].Len() != ref[i].Len() {
			t.Fatalf("member %d: Len %d, referee %d", i, dense[i].Len(), ref[i].Len())
		}
		for u := NodeID(0); u < n; u++ {
			gs, gok := dense[i].Last(u)
			ws, wok := ref[i].Last(u)
			if gs != ws || gok != wok {
				t.Fatalf("member %d: Last(%d) = %d,%v, referee %d,%v", i, u, gs, gok, ws, wok)
			}
		}
	}
}

// TestMergeAllSteadyStateAllocs enforces that meetings and bounded visit
// recording allocate nothing once the buffers have grown.
func TestMergeAllSteadyStateAllocs(t *testing.T) {
	for _, wl := range mergeWorkloads {
		if avg := testing.AllocsPerRun(100, mergeLoop(denseImpl, wl)); avg != 0 {
			t.Fatalf("%s: meeting allocates %.1f times in steady state, want 0", wl.name, avg)
		}
	}
	v := NewVisits(32)
	s := rng.New(2)
	step := 0
	record := func() { step++; v.Record(NodeID(s.Intn(250)), step) }
	for i := 0; i < 300; i++ {
		record()
	}
	if avg := testing.AllocsPerRun(100, record); avg != 0 {
		t.Fatalf("bounded Record allocates %.1f times in steady state, want 0", avg)
	}
}
