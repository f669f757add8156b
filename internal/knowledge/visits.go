package knowledge

import (
	"cmp"
	"slices"
	"sync/atomic"
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
//
// epoch is the token of the merge that last installed its whole union
// here (0 = none), and log lists the nodes Record has changed since; see
// MergeScratch.MergeAll.
type Visits struct {
	capacity int
	pos      []int32
	recs     []visitRec
	epoch    uint64
	log      []NodeID
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
		v.stamp(0)
	}
	if v.raise(u, step) && v.epoch != 0 {
		v.log = append(v.log, u)
		if len(v.log) > len(v.recs) {
			v.stamp(0)
		}
	}
}

// stamp marks the memory as holding exactly the union installed by merge
// epoch (0 = no merge) and empties its log.
func (v *Visits) stamp(epoch uint64) {
	v.epoch = epoch
	v.log = v.log[:0]
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
	v.stamp(0)
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
	deltas  int // merges that took the delta path, for tests
}

// mergeEpochs issues merge tokens. It is shared by every scratch because
// groups merge concurrently, and a token must name one merge.
var mergeEpochs atomic.Uint64

// MergeAll is the scratch-buffered form of the package-level MergeAll:
// identical results and member states, zero steady-state allocations.
//
// Every member that receives the whole union is stamped with a fresh
// epoch, after which Record logs the nodes it changes. A group whose
// members all carry one epoch each hold that epoch's union plus their
// logged nodes, so their new union is the old one raised by the logged
// records alone, and merging costs members × logged records rather than
// members × union.
func (s *MergeScratch) MergeAll(ms []*Visits) []int {
	if cap(s.changed) < len(ms) {
		s.changed = make([]int, len(ms))
	}
	changed := s.changed[:len(ms)]
	clear(changed)
	epoch := mergeEpochs.Add(1)
	if s.mergeDelta(ms, changed, epoch) {
		s.deltas++
	} else {
		s.mergeFull(ms, changed, epoch)
	}
	return changed
}

// mergeDelta merges a group that shares one epoch from its members' logs,
// reporting false, with nothing changed, when the group does not share
// one or the new union would overflow a member's capacity.
func (s *MergeScratch) mergeDelta(ms []*Visits, changed []int, epoch uint64) bool {
	if len(ms) == 0 || ms[0].epoch == 0 {
		return false
	}
	// A logged node is at its freshest in the members that logged it.
	d := &s.union
	d.clear()
	for _, m := range ms {
		if m.epoch != ms[0].epoch {
			return false
		}
		for _, u := range m.log {
			step, _ := m.Last(u)
			d.raise(u, step)
		}
	}
	// The new union is any member plus the logged nodes it lacks.
	size := len(ms[0].recs)
	for _, r := range d.recs {
		if ms[0].slot(r.node) == 0 {
			size++
		}
	}
	for _, m := range ms {
		if m.capacity > 0 && size > m.capacity {
			return false
		}
	}
	for i, m := range ms {
		for _, r := range d.recs {
			if m.raise(r.node, r.step) {
				changed[i]++
			}
		}
		m.stamp(epoch)
	}
	return true
}

// mergeFull builds the group's union from every member's records.
func (s *MergeScratch) mergeFull(ms []*Visits, changed []int, epoch uint64) {
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
	for i, m := range ms {
		if m.capacity <= 0 || len(u.recs) <= m.capacity {
			// The member's records are a subset of the union, so raising
			// them in place installs it.
			for _, r := range u.recs {
				if m.raise(r.node, r.step) {
					changed[i]++
				}
			}
			m.stamp(epoch)
			continue
		}
		// Count what the freshest records add or refresh against the
		// member's pre-meeting state, then replace its memory with them.
		// A full member they leave unchanged already holds exactly them.
		m.stamp(0)
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
}

// fresherFirst orders records by descending step, ties by ascending node.
func fresherFirst(a, b visitRec) int {
	if c := cmp.Compare(b.step, a.step); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}
