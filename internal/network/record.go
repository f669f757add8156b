package network

import (
	"encoding/json"

	"repro/internal/trace"
)

// DefaultAnchorEvery is the default snapshot-anchor cadence (in steps) for
// recorded runs: frequent enough that reconstructing any step replays at
// most this many world deltas, sparse enough that anchors stay a small
// fraction of the log.
const DefaultAnchorEvery = 100

// StepRecorder streams a world's evolution into a trace.WorldSink: a full
// snapshot anchor every K harness steps and one compact delta (changed
// positions, changed radio ranges, fault-state transitions) after every
// world step. The recorder only observes — it never mutates the world or
// consumes RNG — so recording cannot perturb a seeded run.
//
// Protocol, mirroring the harness loop:
//
//	rec := NewStepRecorder(world, sink, every) // world at its start state
//	for step := 0; step < steps; step++ {
//	    rec.BeforeStep(step) // anchors V(step) when step%every == 0
//	    ... agent phase: events emitted at this step ...
//	    world.Step()
//	    rec.AfterWorldStep() // delta labeled step+1 = V(step+1)
//	}
//
// With anchors at V(A) and deltas labeled A+1..S, replaying the tail of
// deltas in (A, S] on top of the nearest anchor A <= S reconstructs the
// world exactly as the harness observed it at step S.
type StepRecorder struct {
	sink  trace.WorldSink
	every int
	diff  worldDiffer
}

// NewStepRecorder starts recording w into sink, anchoring every `every`
// steps (<= 0 uses DefaultAnchorEvery). Returns nil — a no-op recorder —
// when sink is nil. The world's current state becomes the delta baseline,
// so construct the recorder before the first BeforeStep call.
func NewStepRecorder(w *World, sink trace.WorldSink, every int) *StepRecorder {
	if sink == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultAnchorEvery
	}
	r := &StepRecorder{sink: sink, every: every}
	r.diff.init(w, false)
	return r
}

// BeforeStep anchors a full snapshot of the current world state when step
// falls on the anchor cadence. Call at the top of each harness step,
// before the agent phase.
func (r *StepRecorder) BeforeStep(step int) {
	if r == nil || step%r.every != 0 {
		return
	}
	b, err := json.Marshal(r.diff.w.Snapshot())
	if err != nil {
		// Snapshot marshalling cannot fail for in-range world state; skip
		// the anchor rather than aborting the run if it somehow does.
		return
	}
	r.sink.EmitAnchor(step, b)
}

// AfterWorldStep emits the delta between the previous baseline and the
// world's new state, labeled with the world's own step counter. Call
// immediately after each World.Step.
func (r *StepRecorder) AfterWorldStep() {
	if r != nil && r.diff.step() {
		r.sink.EmitWorld(r.diff.d)
	}
}

// worldDiffer computes each step's world delta against the state it last
// reported — the one differ behind StepRecorder and TrajectoryRecorder. It
// only reads the world, so recording cannot perturb a seeded run.
type worldDiffer struct {
	w     *World
	edges bool // also diff the topology into the add/remove lists

	prevX, prevY, prevRange     []float64
	prevEpoch                   int
	prevInjected, prevRecovered uint64
	prevOff                     []int32
	prevDst                     []NodeID

	// The last step's delta: d (Step is the world's step counter), the
	// fault events injected and recovered when d.FaultChanged, and — with
	// edges — the directed edges that appeared and vanished, sorted by
	// (u, v).
	d                      trace.WorldDelta
	injected, recovered    uint64
	addU, addV, remU, remV []int32
}

// init makes w's current state the baseline.
func (f *worldDiffer) init(w *World, edges bool) {
	n := w.N()
	f.w, f.edges = w, edges
	f.prevX, f.prevY, f.prevRange = make([]float64, n), make([]float64, n), make([]float64, n)
	for u := 0; u < n; u++ {
		f.prevX[u], f.prevY[u] = w.pos[u].X, w.pos[u].Y
		f.prevRange[u] = w.radios[u].Range()
	}
	f.prevEpoch = w.FaultEpoch()
	if fs := w.flt; fs != nil {
		f.prevInjected, f.prevRecovered = fs.injectedTotal, fs.recoveredTotal
	}
	if edges {
		f.captureTopo()
	}
}

// step diffs the world against the baseline, makes its state the new
// baseline, and reports whether anything changed.
func (f *worldDiffer) step() bool {
	w, d := f.w, &f.d
	d.Step = w.StepCount()
	d.Nodes, d.X, d.Y = d.Nodes[:0], d.X[:0], d.Y[:0]
	d.RangeNodes, d.Ranges = d.RangeNodes[:0], d.Ranges[:0]
	d.FaultChanged, d.Dead, d.DownGateways = false, d.Dead[:0], d.DownGateways[:0]
	d.Partition, d.PartitionX = false, 0
	f.addU, f.addV, f.remU, f.remV = f.addU[:0], f.addV[:0], f.remU[:0], f.remV[:0]
	ep := w.FaultEpoch()
	if !w.dynamic && ep == f.prevEpoch {
		return false // static world between fault epochs: nothing can change
	}
	n := w.N()
	for u := 0; u < n; u++ {
		if p := w.pos[u]; p.X != f.prevX[u] || p.Y != f.prevY[u] {
			d.Nodes = append(d.Nodes, int32(u))
			d.X = append(d.X, p.X)
			d.Y = append(d.Y, p.Y)
			f.prevX[u], f.prevY[u] = p.X, p.Y
		}
		if rg := w.radios[u].Range(); rg != f.prevRange[u] {
			d.RangeNodes = append(d.RangeNodes, int32(u))
			d.Ranges = append(d.Ranges, rg)
			f.prevRange[u] = rg
		}
	}
	if ep != f.prevEpoch {
		f.prevEpoch = ep
		d.FaultChanged = true
		f.injected, f.recovered = 0, 0
		if fs := w.flt; fs != nil {
			for u := 0; u < n; u++ {
				if fs.dead[u] {
					d.Dead = append(d.Dead, int32(u))
				}
				if fs.gwDown[u] {
					d.DownGateways = append(d.DownGateways, int32(u))
				}
			}
			d.Partition, d.PartitionX = fs.partActive, fs.partX
			f.injected = fs.injectedTotal - f.prevInjected
			f.recovered = fs.recoveredTotal - f.prevRecovered
			f.prevInjected, f.prevRecovered = fs.injectedTotal, fs.recoveredTotal
		}
	}
	if f.edges {
		f.diffTopo()
	}
	return len(d.Nodes) > 0 || len(d.RangeNodes) > 0 || d.FaultChanged || len(f.addU) > 0 || len(f.remU) > 0
}

// captureTopo copies the world's adjacency into the flat CSR baseline.
func (f *worldDiffer) captureTopo() {
	g := f.w.topo
	f.prevOff = append(f.prevOff[:0], 0)
	f.prevDst = f.prevDst[:0]
	for u := 0; u < f.w.N(); u++ {
		f.prevDst = append(f.prevDst, g.Out(NodeID(u))...)
		f.prevOff = append(f.prevOff, int32(len(f.prevDst)))
	}
}

// diffTopo merges each node's previous and current sorted out-lists into
// the add/remove lists — O(E_prev + E_cur) — and re-captures the baseline
// when anything churned.
func (f *worldDiffer) diffTopo() {
	g := f.w.topo
	for u := 0; u < f.w.N(); u++ {
		prev := f.prevDst[f.prevOff[u]:f.prevOff[u+1]]
		cur := g.Out(NodeID(u))
		i, j := 0, 0
		for i < len(prev) && j < len(cur) {
			switch {
			case prev[i] == cur[j]:
				i++
				j++
			case prev[i] < cur[j]:
				f.remU = append(f.remU, int32(u))
				f.remV = append(f.remV, int32(prev[i]))
				i++
			default:
				f.addU = append(f.addU, int32(u))
				f.addV = append(f.addV, int32(cur[j]))
				j++
			}
		}
		for ; i < len(prev); i++ {
			f.remU = append(f.remU, int32(u))
			f.remV = append(f.remV, int32(prev[i]))
		}
		for ; j < len(cur); j++ {
			f.addU = append(f.addU, int32(u))
			f.addV = append(f.addV, int32(cur[j]))
		}
	}
	if len(f.addU) > 0 || len(f.remU) > 0 {
		f.captureTopo()
	}
}
