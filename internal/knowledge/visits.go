package knowledge

import (
	"cmp"
	"slices"
)

// Visits is an agent's bounded memory of when it last visited each node.
// It drives the conscientious / super-conscientious / oldest-node policies:
// "go to the neighbour you have never visited, don't remember visiting, or
// visited longest ago."
//
// Capacity 0 means unbounded. When bounded and full, the entry with the
// oldest step is evicted — forgetting the most distant visit first, which
// is what a fixed-size ring of visit records would do.
//
// The memory is a sparse set: recs holds the remembered (node, step)
// records contiguously, in no particular order, and pos is a dense
// per-node index into it (0 = absent, else position+1) that grows to the
// largest node ID recorded. Last is one index load, and an eviction
// scans at most Len contiguous records.
type Visits struct {
	capacity int
	pos      []int32
	recs     []visitRec
}

type visitRec struct {
	node NodeID
	step int
}

// NewVisits returns a visit memory holding at most capacity entries
// (0 = unbounded).
func NewVisits(capacity int) *Visits {
	return &Visits{capacity: capacity}
}

// Len returns the number of remembered nodes.
func (v *Visits) Len() int { return len(v.recs) }

// Capacity returns the configured bound (0 = unbounded).
func (v *Visits) Capacity() int { return v.capacity }

// Record notes that the agent stood on node u at the given step.
func (v *Visits) Record(u NodeID, step int) {
	if v.slot(u) == 0 && v.capacity > 0 && len(v.recs) >= v.capacity {
		v.evictOldest()
	}
	v.raise(u, step)
}

// raise records u at step unless it is remembered at that step or later,
// reporting whether the memory changed. It never evicts.
func (v *Visits) raise(u NodeID, step int) bool {
	if p := v.slot(u); p != 0 {
		r := &v.recs[p-1]
		if step <= r.step {
			return false
		}
		r.step = step
		return true
	}
	if int(u) >= len(v.pos) {
		v.pos = append(v.pos, make([]int32, int(u)+1-len(v.pos))...)
	}
	v.recs = append(v.recs, visitRec{node: u, step: step})
	v.pos[u] = int32(len(v.recs))
	return true
}

// Last returns when u was last visited. ok is false if the agent never
// visited u or has forgotten the visit.
func (v *Visits) Last(u NodeID) (step int, ok bool) {
	if p := v.slot(u); p != 0 {
		return v.recs[p-1].step, true
	}
	return 0, false
}

// slot returns u's index entry: 0 if absent, else its position+1.
func (v *Visits) slot(u NodeID) int32 {
	if uint(u) < uint(len(v.pos)) {
		return v.pos[u]
	}
	return 0
}

// evictOldest removes the entry with the smallest step, breaking ties by
// smallest node ID, and swaps the last record into its place.
func (v *Visits) evictOldest() {
	victim := 0
	for i, r := range v.recs {
		if o := v.recs[victim]; r.step < o.step || (r.step == o.step && r.node < o.node) {
			victim = i
		}
	}
	last := len(v.recs) - 1
	v.pos[v.recs[victim].node] = 0
	if victim != last {
		v.recs[victim] = v.recs[last]
		v.pos[v.recs[victim].node] = int32(victim + 1)
	}
	v.recs = v.recs[:last]
}

// clear forgets every record, zeroing only the index entries it held.
func (v *Visits) clear() {
	for _, r := range v.recs {
		v.pos[r.node] = 0
	}
	v.recs = v.recs[:0]
}

// MergeAll folds the visit memories of a meeting group into their union —
// the most recent step per node — and installs that union in every member,
// bounded to each member's own capacity by keeping the freshest records
// (ties by smallest node ID). This is the "become identical after meeting"
// mechanism of super-conscientious (mapping) and communicating oldest-node
// (routing) agents: afterwards equal-capacity members are identical. It
// returns, per member, how many records were added or refreshed.
func MergeAll(ms []*Visits) []int {
	var s MergeScratch
	return s.MergeAll(ms)
}

// MergeScratch carries the reusable buffers of MergeAll: the union memory
// and the per-member change counts. Meetings happen tens of thousands of
// times per run, so reusing these is a large share of making the
// simulation loop allocation-free. The zero value is ready; the slice
// MergeAll returns aliases the scratch and is valid until the next call.
type MergeScratch struct {
	union   Visits
	changed []int
}

// MergeAll is the scratch-buffered form of the package-level MergeAll:
// identical results and member states, zero steady-state allocations.
func (s *MergeScratch) MergeAll(ms []*Visits) []int {
	u := &s.union
	u.clear()
	for _, m := range ms {
		for _, r := range m.recs {
			u.raise(r.node, r.step)
		}
	}
	// Order only matters to a member whose capacity truncates the union.
	for _, m := range ms {
		if m.capacity > 0 && len(u.recs) > m.capacity {
			slices.SortFunc(u.recs, fresherFirst)
			break
		}
	}
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	for i, m := range ms {
		changed[i] = 0
		if m.capacity <= 0 || len(u.recs) <= m.capacity {
			// The member's records are a subset of the union, so raising
			// them in place installs it.
			for _, r := range u.recs {
				if m.raise(r.node, r.step) {
					changed[i]++
				}
			}
			continue
		}
		// Count what the freshest records add or refresh against the
		// member's pre-meeting state, then replace its memory with them.
		// A full member they leave unchanged already holds exactly them.
		kept := u.recs[:m.capacity]
		for _, r := range kept {
			if p := m.slot(r.node); p == 0 || r.step > m.recs[p-1].step {
				changed[i]++
			}
		}
		if changed[i] == 0 {
			continue
		}
		m.clear()
		for _, r := range kept {
			m.raise(r.node, r.step)
		}
	}
	return changed
}

// fresherFirst orders records by descending step, ties by ascending node.
func fresherFirst(a, b visitRec) int {
	if c := cmp.Compare(b.step, a.step); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}
