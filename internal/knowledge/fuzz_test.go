package knowledge

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// FuzzTrailOps drives a Trail with an arbitrary operation tape and checks
// its structural invariants after every operation.
func FuzzTrailOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0})
	f.Add(uint8(2), []byte{200, 200, 200})
	f.Add(uint8(16), []byte{})
	f.Fuzz(func(t *testing.T, capacity uint8, tape []byte) {
		tr := NewTrail(int(capacity))
		for i, op := range tape {
			node := NodeID(op % 32)
			if op >= 224 { // ~1/8 of ops are gateway visits
				tr.ResetAt(node)
			} else {
				tr.Extend(node)
			}
			// Invariants after every op.
			if tr.Len() > tr.Capacity() {
				t.Fatalf("op %d: len %d > capacity %d", i, tr.Len(), tr.Capacity())
			}
			if tr.Anchored() {
				if tr.Hops() != tr.Len()-1 {
					t.Fatalf("op %d: anchored hops %d != len-1 %d", i, tr.Hops(), tr.Len()-1)
				}
				if tr.Gateway() < 0 {
					t.Fatalf("op %d: anchored but no gateway", i)
				}
			} else if tr.Hops() != -1 || tr.Gateway() != -1 {
				t.Fatalf("op %d: unanchored trail reports a route", i)
			}
			seen := map[NodeID]bool{}
			for _, u := range tr.Nodes() {
				if seen[u] {
					t.Fatalf("op %d: duplicate node %d in trail %v", i, u, tr.Nodes())
				}
				seen[u] = true
			}
			if tr.Len() > 0 && tr.Current() != tr.At(tr.Len()-1) {
				t.Fatalf("op %d: Current mismatch", i)
			}
		}
	})
}

// FuzzVisitsOps drives a Visits memory with an arbitrary tape and checks
// the capacity bound and recency semantics.
func FuzzVisitsOps(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5})
	f.Add(uint8(0), []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, capacity uint8, tape []byte) {
		v := NewVisits(int(capacity))
		highest := map[NodeID]int{}
		for step, op := range tape {
			node := NodeID(op % 16)
			v.Record(node, step)
			if prev, ok := highest[node]; !ok || step > prev {
				highest[node] = step
			}
			if capacity > 0 && v.Len() > int(capacity) {
				t.Fatalf("step %d: len %d > capacity %d", step, v.Len(), capacity)
			}
			// Anything remembered must match the true latest step.
			if got, ok := v.Last(node); !ok || got != highest[node] {
				t.Fatalf("step %d: Last(%d) = %d,%v want %d", step, node, got, ok, highest[node])
			}
		}
	})
}

// FuzzVisitsMergeEquivalence drives 2–6 dense visit memories and their
// hash-map referees through one tape of Record and MergeAll ops, with
// mixed capacities and node IDs up to 600, and requires identical Len,
// Last for every ID, and per-member changed counts after every op.
//
// The tape's first byte picks the member count and the next ones their
// capacities (0, 1, 3 or 200). Each following 4-byte op (op, a, b, c)
// merges the members selected by bitmask a when op%8 == 7, and otherwise
// records node (a<<8|b)%601 at step c%32 into member (op>>3)%k; the small
// step range makes eviction and truncation ties common. Ops past the
// 512th are ignored.
func FuzzVisitsMergeEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 9, 0, 5, 1, 9, 1, 2, 7, 3, 0, 0})
	f.Add([]byte{4, 0, 1, 2, 3, 0, 0, 1, 2, 1, 2, 3, 0xff, 7, 0xff, 0, 0})
	s := rng.New(13)
	long := []byte{3, 0, 3, 2, 1, 0}
	for i := 0; i < 500; i++ {
		op, a := byte(s.Intn(256))&^7, byte(s.Intn(3))
		if i%25 == 24 {
			op, a = 7, byte(s.Intn(256))
		}
		long = append(long, op, a, byte(s.Intn(256)), byte(s.Intn(256)))
	}
	f.Add(long)
	capacities := [...]int{0, 1, 3, 200}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		k := 2 + int(tape[0])%5
		dense := make([]*Visits, k)
		ref := make([]*refVisits, k)
		for i := range dense {
			c := 0
			if 1+i < len(tape) {
				c = capacities[tape[1+i]%4]
			}
			dense[i], ref[i] = NewVisits(c), newRefVisits(c)
		}
		// Every op is checked against all members and IDs, so bound the
		// tape to keep each execution short.
		tape = tape[min(1+k, len(tape)):]
		tape = tape[:min(len(tape), 4*512)]
		var ds MergeScratch
		var rs refMergeScratch
		var dsub []*Visits
		var rsub []*refVisits
		maxID := NodeID(0)
		for i := 0; i+4 <= len(tape); i += 4 {
			op, a, b, c := tape[i], tape[i+1], tape[i+2], tape[i+3]
			if op%8 == 7 {
				dsub, rsub = dsub[:0], rsub[:0]
				for j := 0; j < k; j++ {
					if a&(1<<j) != 0 {
						dsub, rsub = append(dsub, dense[j]), append(rsub, ref[j])
					}
				}
				got, want := ds.MergeAll(dsub), rs.MergeAll(rsub)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: MergeAll changed %v, referee %v", i/4, got, want)
				}
			} else {
				m := int(op>>3) % k
				u := NodeID((int(a)<<8 | int(b)) % 601)
				maxID = max(maxID, u)
				dense[m].Record(u, int(c)%32)
				ref[m].Record(u, int(c)%32)
			}
			for j := range dense {
				if dense[j].Len() != ref[j].Len() {
					t.Fatalf("op %d: member %d Len %d, referee %d", i/4, j, dense[j].Len(), ref[j].Len())
				}
				for u := NodeID(0); u <= maxID+1; u++ {
					gs, gok := dense[j].Last(u)
					ws, wok := ref[j].Last(u)
					if gs != ws || gok != wok {
						t.Fatalf("op %d: member %d Last(%d) = %d,%v, referee %d,%v", i/4, j, u, gs, gok, ws, wok)
					}
				}
			}
		}
	})
}
