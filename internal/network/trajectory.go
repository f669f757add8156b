package network

// Trajectory replay: the fourth world-stepping engine, alongside the full
// rebuild, the sequential incremental engine, and the sharded engine.
//
// The paper's agents only *observe* the world — mobility and link churn
// evolve independently of agent decisions — so every replication and every
// sweep point over one (world spec, seed, fault schedule) steps an
// identical world. A TrajectoryRecorder captures one live run's evolution
// — position deltas, edge add/remove churn, range updates, fault-epoch
// transitions — into an in-memory Trajectory, delta-coded with the same
// predictor/XOR float lanes and varint framing as the trace binlog.
// Subsequent runs replay it through World.StepFromTrajectory, which applies
// the cached churn in O(changes) with zero mobility RNG, zero disc scans,
// and zero grid maintenance, and is bit-identical to live stepping (pinned
// by the equivalence, fuzz, and -race gates in trajectory_test.go).
//
// Wire format for Trajectory.data (version 2) — a sequence of records,
// one per step that changed anything, each:
//
//	uvarint gap      empty steps preceding this record
//	body             the trace world-delta record body (trace.DeltaCodec):
//	                 changed positions, changed ranges, fault transition —
//	                 byte for byte the layout the binary event log carries
//	pairs   adds     edges that appeared, sorted by (u, v)
//	pairs   removes  edges that vanished, sorted by (u, v)
//	uvarint×2        fault records only: events injected, recovered
//
// where pairs is a uvarint count followed by (du, dv) gaps, dv restarting
// from zero whenever u advances. Trailing empty steps carry no bytes at all
// (the step count bounds them). The body's predictor chains reset at every
// anchor-era boundary — both sides derive the era from the record's step
// number alone, so a Trajectory decodes identically whether or not an
// anchor was stored. Version 1 (a flags byte and a trajectory-private
// layout) is no longer read.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/trace"
)

// trajMagic and trajVersion frame the serialised form (MarshalBinary).
const (
	trajMagic   = "AMSHTRAJ"
	trajVersion = 2
)

// ErrTrajectoryCorrupt wraps every decode/validation failure so callers can
// distinguish corruption from I/O errors.
var ErrTrajectoryCorrupt = errors.New("corrupt trajectory")

func trajCorrupt(format string, args ...any) error {
	return fmt.Errorf("network: %w: "+format, append([]any{ErrTrajectoryCorrupt}, args...)...)
}

// TrajAnchor pairs a step number with the JSON world snapshot captured
// after that step. Anchors are stored only at era boundaries the world
// actually changed before, so an all-static stretch costs nothing.
type TrajAnchor struct {
	Step int
	Snap []byte
}

// Trajectory is a recorded world evolution: the start snapshot, the
// delta-coded churn stream, and periodic snapshot anchors. It is immutable
// after Finish/Unmarshal and safe to share across concurrent replay worlds
// — each World() call gets its own decode cursor.
type Trajectory struct {
	n       int
	steps   int
	every   int
	dynamic bool
	start   []byte   // JSON snapshot at record start
	snap    Snapshot // decoded start, cached
	anchors []TrajAnchor
	data    []byte
	records int
	hash    uint64
}

// Steps returns how many world steps the trajectory covers.
func (t *Trajectory) Steps() int { return t.steps }

// N returns the node count of the recorded world.
func (t *Trajectory) N() int { return t.n }

// AnchorEvery returns the anchor/lane-reset cadence in steps.
func (t *Trajectory) AnchorEvery() int { return t.every }

// Dynamic reports whether the recorded world was dynamic.
func (t *Trajectory) Dynamic() bool { return t.dynamic }

// Records returns how many non-empty step records the stream holds.
func (t *Trajectory) Records() int { return t.records }

// StartSnapshot returns the JSON snapshot of the recorded world's start
// state. Callers must not modify it.
func (t *Trajectory) StartSnapshot() []byte { return t.start }

// Anchors returns the stored snapshot anchors. Callers must not modify.
func (t *Trajectory) Anchors() []TrajAnchor { return t.anchors }

// World builds a fresh replay world positioned at the trajectory's start.
// Every Step on it applies the next recorded delta instead of running
// mobility, decay, or topology maintenance; stepping past Steps() panics.
// Worlds from the same Trajectory are independent (the shared data is read
// only), so concurrent replications are race-free.
func (t *Trajectory) World() (*World, error) {
	w, err := t.snap.World()
	if err != nil {
		return nil, err
	}
	// The snapshot build aliases adjacency rows in one flat CSR array;
	// replay mutates rows surgically, so migrate them to owned storage
	// once, exactly as the incremental engine does.
	w.topo.OwnRows(8)
	// Replay worlds observe like the recorded one: Dynamic() must agree so
	// callers (and re-recording) see the same world shape. The dispatch in
	// Step routes every call to the trajectory before any dynamic branch.
	w.dynamic = t.dynamic
	w.traj = newTrajDecoder(t)
	return w, nil
}

// hashInput assembles the bytes the config hash covers: the framing ints
// and the start snapshot, so a hash mismatch catches a trajectory applied
// to the wrong world shape.
func (t *Trajectory) hashInput() []byte {
	b := make([]byte, 0, len(t.start)+32)
	b = binary.AppendUvarint(b, uint64(t.n))
	b = binary.AppendUvarint(b, uint64(t.steps))
	b = binary.AppendUvarint(b, uint64(t.every))
	if t.dynamic {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, t.start...)
}

// ---------------------------------------------------------------------------
// Recording

// TrajectoryRecorder captures a live world's per-step churn into a
// Trajectory. It only observes — it never mutates the world or consumes RNG
// — so recording cannot perturb a seeded run. Protocol:
//
//	rec, err := NewTrajectoryRecorder(w, every) // world at its start state
//	for i := 0; i < steps; i++ { w.Step(); rec.AfterStep() }
//	traj := rec.Finish()
type TrajectoryRecorder struct {
	t     *Trajectory
	every int

	steps int  // AfterStep calls so far
	gap   int  // empty steps since the last emitted record
	dirty bool // a record was emitted since the last stored anchor
	era   int

	diff  worldDiffer
	codec trace.DeltaCodec
}

// NewTrajectoryRecorder starts recording w; every <= 0 uses
// DefaultAnchorEvery. The world's current state becomes the trajectory's
// start snapshot, so construct the recorder before the first Step.
func NewTrajectoryRecorder(w *World, every int) (*TrajectoryRecorder, error) {
	if every <= 0 {
		every = DefaultAnchorEvery
	}
	snap := w.Snapshot()
	start, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("network: marshalling trajectory start snapshot: %w", err)
	}
	r := &TrajectoryRecorder{
		every: every,
		t: &Trajectory{
			n:       w.N(),
			every:   every,
			dynamic: w.dynamic,
			start:   start,
			snap:    snap,
		},
	}
	r.diff.init(w, true)
	r.codec.Grow(w.N())
	return r, nil
}

// AfterStep records the delta between the world's previous and current
// state. Call immediately after every World.Step.
func (r *TrajectoryRecorder) AfterStep() {
	r.steps++
	rel := r.steps
	if r.diff.step() {
		r.emit(rel)
	} else {
		r.gap++
	}
	if rel%r.every == 0 && r.dirty {
		if b, err := json.Marshal(r.diff.w.Snapshot()); err == nil {
			r.t.anchors = append(r.t.anchors, TrajAnchor{Step: rel, Snap: b})
			r.dirty = false
		}
	}
}

// emit appends the differ's delta as the record for step rel.
func (r *TrajectoryRecorder) emit(rel int) {
	if era := (rel - 1) / r.every; era != r.era {
		r.codec.Reset()
		r.era = era
	}
	t, f := r.t, &r.diff
	t.data = binary.AppendUvarint(t.data, uint64(r.gap))
	r.gap = 0
	t.data = r.codec.Append(t.data, &f.d)
	t.data = appendPairs(t.data, f.addU, f.addV)
	t.data = appendPairs(t.data, f.remU, f.remV)
	if f.d.FaultChanged {
		t.data = binary.AppendUvarint(t.data, f.injected)
		t.data = binary.AppendUvarint(t.data, f.recovered)
	}
	t.records++
	r.dirty = true
}

// Finish seals and returns the trajectory. The recorder must not be used
// afterwards.
func (r *TrajectoryRecorder) Finish() *Trajectory {
	t := r.t
	t.steps = r.steps
	t.hash = trace.ConfigHashOf(t.hashInput())
	return t
}

// RecordTrajectory steps w `steps` times, recording every delta, and
// returns the sealed trajectory. every <= 0 uses DefaultAnchorEvery.
func RecordTrajectory(w *World, steps, every int) (*Trajectory, error) {
	if steps < 0 {
		return nil, fmt.Errorf("network: trajectory steps must be non-negative, got %d", steps)
	}
	rec, err := NewTrajectoryRecorder(w, every)
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		w.Step()
		rec.AfterStep()
	}
	return rec.Finish(), nil
}

// TrajectorySource records a trajectory at most once and hands out
// independent replay worlds — RunMany's worldFor shape. The record phase is
// sync.Once-guarded, so concurrent sweep points and parallel replications
// share one recording safely.
type TrajectorySource struct {
	steps int
	every int
	sched *faults.Schedule
	build func() (*World, error)

	once sync.Once
	traj *Trajectory
	err  error
}

// NewTrajectorySource prepares a lazy record-once source: the first
// WorldFor (or Trajectory) call builds a live world via build, attaches
// sched (if any), records steps steps, and caches the result.
func NewTrajectorySource(steps, anchorEvery int, sched *faults.Schedule, build func() (*World, error)) *TrajectorySource {
	return &TrajectorySource{steps: steps, every: anchorEvery, sched: sched, build: build}
}

// Trajectory returns the recorded trajectory, recording it on first call.
func (s *TrajectorySource) Trajectory() (*Trajectory, error) {
	s.once.Do(func() {
		w, err := s.build()
		if err != nil {
			s.err = err
			return
		}
		if s.sched != nil {
			w.SetFaults(s.sched)
		}
		s.traj, s.err = RecordTrajectory(w, s.steps, s.every)
	})
	return s.traj, s.err
}

// WorldFor returns a fresh replay world per call (the run index is unused —
// every replication replays the same environment, as the paper prescribes).
func (s *TrajectorySource) WorldFor(int) (*World, error) {
	t, err := s.Trajectory()
	if err != nil {
		return nil, err
	}
	return t.World()
}

// ---------------------------------------------------------------------------
// Replay

// StepFromTrajectory advances a replay world one step by applying the next
// recorded delta — O(changes), no mobility RNG, no disc scans, no grid.
// Step dispatches here automatically for worlds built by Trajectory.World;
// calling it on a world without a trajectory, or past the recorded horizon,
// panics (the harness contract is steps <= Trajectory.Steps()).
func (w *World) StepFromTrajectory() {
	c := w.traj
	if c == nil {
		panic("network: StepFromTrajectory on a world without an attached trajectory")
	}
	if c.rel >= c.t.steps {
		panic(fmt.Sprintf("network: trajectory exhausted: world stepped past the %d recorded steps", c.t.steps))
	}
	w.step++
	w.m.steps.Inc()
	if w.watch != nil {
		w.watch.reset(w.step)
	}
	has, err := c.next()
	if err != nil {
		// Trajectories are validated at build/unmarshal time; reaching this
		// means the caller bypassed validation or mutated shared data.
		panic(fmt.Sprintf("network: %v during replay at step %d", err, c.rel))
	}
	if !has {
		return
	}
	d := &c.d
	for i, u := range d.Nodes {
		w.pos[u] = geom.Point{X: d.X[i], Y: d.Y[i]}
	}
	for i, u := range d.RangeNodes {
		w.radios[u] = radio.New(d.Ranges[i])
	}
	if len(c.addU) > 0 || len(c.remU) > 0 {
		for i := range c.addU {
			w.topo.InsertEdgeSorted(NodeID(c.addU[i]), NodeID(c.addV[i]))
		}
		for i := range c.remU {
			w.topo.RemoveEdgeSorted(NodeID(c.remU[i]), NodeID(c.remV[i]))
		}
		w.m.linksAdded.Add(uint64(len(c.addU)))
		w.m.linksRemoved.Add(uint64(len(c.remU)))
		w.m.edges.Set(float64(w.topo.M()))
		if dl := w.watch; dl != nil {
			// Recorded deltas are exact diffs, so replay keeps watchers
			// incremental even across fault steps (the recording diffed the
			// topology straight through the live rebuild). A fault record
			// still forces a resync via the epoch advance consumers track.
			for i := range c.addU {
				dl.add(NodeID(c.addU[i]), NodeID(c.addV[i]))
			}
			for i := range c.remU {
				dl.remove(NodeID(c.remU[i]), NodeID(c.remV[i]))
			}
		}
	}
	if d.FaultChanged {
		w.applyTrajFault(d, c.injected, c.recovered)
	}
}

// TrajectoryRemaining returns how many recorded steps are left to replay;
// 0 for worlds without an attached trajectory.
func (w *World) TrajectoryRemaining() int {
	if w.traj == nil {
		return 0
	}
	return w.traj.t.steps - w.traj.rel
}

// applyTrajFault installs one recorded fault-epoch transition: the full
// masks replace the current ones (records carry absolute state, so replay
// needs no event semantics), and the faults_* instruments advance by the
// recorded injected/recovered counts — identical to the live counters.
func (w *World) applyTrajFault(d *trace.WorldDelta, injected, recovered uint64) {
	if w.flt == nil {
		w.initFaultState()
	}
	f := w.flt
	clear(f.dead)
	clear(f.gwDown)
	for _, u := range d.Dead {
		f.dead[u] = true
	}
	for _, g := range d.DownGateways {
		f.gwDown[g] = true
	}
	f.aliveCount = w.N() - len(d.Dead)
	f.partActive, f.partX = d.Partition, d.PartitionX
	w.refreshActiveGateways()
	f.epoch++
	f.injectedTotal += injected
	f.recoveredTotal += recovered
	// LastFaultEvents comes from the schedule the harness attached; replay
	// itself never consults it for state.
	f.lastEvents = f.sched.At(w.step)
	w.m.faultsInjected.Add(injected)
	w.m.faultsRecovered.Add(recovered)
	w.m.faultsNodesDown.Set(float64(len(d.Dead)))
}

// trajDecoder walks the delta stream one step at a time, maintaining the
// same predictor lanes and era resets as the encoder. It doubles as the
// validation walker (validate) and the per-world replay cursor (World).
type trajDecoder struct {
	t    *Trajectory
	cur  trace.Cursor
	rel  int // steps consumed so far
	era  int
	gap  int  // empty steps remaining before the next record; -1 = unloaded
	rest bool // no more records: every remaining step is empty

	codec trace.DeltaCodec

	// The current record: its body, edge churn, and fault counts.
	d                      trace.WorldDelta
	addU, addV, remU, remV []int32
	injected, recovered    uint64
}

func newTrajDecoder(t *Trajectory) *trajDecoder {
	d := &trajDecoder{t: t, cur: trace.NewCursor(t.data, ErrTrajectoryCorrupt), gap: -1}
	d.codec.Grow(t.n)
	return d
}

// next consumes one step: it reports whether this step carries a record
// (decoded into the cursor's fields) or is empty.
func (d *trajDecoder) next() (bool, error) {
	d.rel++
	if d.gap < 0 {
		if d.cur.Len() == 0 {
			d.rest = true
		} else {
			g := d.cur.Uvarint()
			if g > uint64(d.t.steps) {
				d.cur.Failf("step gap %d exceeds the %d-step horizon", g, d.t.steps)
			}
			if err := d.cur.Err(); err != nil {
				return false, fmt.Errorf("network: %w", err)
			}
			d.gap = int(g)
		}
	}
	if d.rest {
		return false, nil
	}
	if d.gap > 0 {
		d.gap--
		return false, nil
	}
	d.gap = -1
	return true, d.decodeRecord()
}

func (d *trajDecoder) decodeRecord() error {
	if era := (d.rel - 1) / d.t.every; era != d.era {
		d.codec.Reset()
		d.era = era
	}
	c := &d.cur
	d.codec.Decode(c, &d.d, d.t.n)
	d.addU, d.addV = d.pairs(d.addU[:0], d.addV[:0])
	d.remU, d.remV = d.pairs(d.remU[:0], d.remV[:0])
	d.injected, d.recovered = 0, 0
	if d.d.FaultChanged {
		d.injected, d.recovered = c.Uvarint(), c.Uvarint()
	} else if len(d.d.Nodes)+len(d.d.RangeNodes)+len(d.addU)+len(d.remU) == 0 {
		c.Failf("empty record")
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("network: step %d: %w", d.rel, err)
	}
	return nil
}

// validate runs the full decode walk over the stream, checking every bound
// the replay apply path relies on, so a trajectory that validates can never
// panic or build a divergent world during replay.
func (t *Trajectory) validate() error {
	if t.n <= 0 || t.steps < 0 || t.every <= 0 {
		return trajCorrupt("invalid framing: n=%d steps=%d every=%d", t.n, t.steps, t.every)
	}
	if len(t.snap.Positions) != t.n {
		return trajCorrupt("start snapshot has %d nodes, header says %d", len(t.snap.Positions), t.n)
	}
	prevAnchor := 0
	for i, a := range t.anchors {
		if a.Step <= prevAnchor || a.Step > t.steps || a.Step%t.every != 0 {
			return trajCorrupt("anchor %d at step %d is out of order or off the %d-step cadence", i, a.Step, t.every)
		}
		prevAnchor = a.Step
		var s Snapshot
		if err := json.Unmarshal(a.Snap, &s); err != nil {
			return trajCorrupt("anchor %d does not parse: %v", i, err)
		}
		if len(s.Positions) != t.n {
			return trajCorrupt("anchor %d has %d nodes, want %d", i, len(s.Positions), t.n)
		}
	}
	d := newTrajDecoder(t)
	records := 0
	for rel := 1; rel <= t.steps; rel++ {
		has, err := d.next()
		if err != nil {
			return err
		}
		if has {
			records++
		}
	}
	if !d.rest && d.gap > 0 {
		return trajCorrupt("step gap overruns the %d-step horizon", t.steps)
	}
	if d.cur.Len() != 0 {
		return trajCorrupt("%d trailing bytes after the final record", d.cur.Len())
	}
	if records != t.records {
		return trajCorrupt("stream holds %d records, header says %d", records, t.records)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Edge churn lists (the trajectory-only record suffix)

// appendPairs writes an edge list sorted by (u, v) as a count plus
// (du, dv) gaps; dv restarts from zero whenever u advances.
func appendPairs(b []byte, us, vs []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(us)))
	prevU, prevV := int32(0), int32(0)
	for i := range us {
		u, v := us[i], vs[i]
		du := u - prevU
		if du > 0 {
			prevV = 0
		}
		b = binary.AppendUvarint(b, uint64(du))
		b = binary.AppendUvarint(b, uint64(v-prevV))
		prevU, prevV = u, v
	}
	return b
}

// pairs decodes an edge list written by appendPairs, rejecting self-loops,
// duplicates, descending order, and out-of-range endpoints.
func (d *trajDecoder) pairs(us, vs []int32) ([]int32, []int32) {
	c, n := &d.cur, int64(d.t.n)
	count := c.Uvarint()
	if count > uint64(c.Len()/2) { // each pair takes at least two bytes
		c.Failf("edge list of %d entries overruns the payload", count)
		return us, vs
	}
	prevU, prevV := int64(0), int64(0)
	for i := uint64(0); i < count && c.Err() == nil; i++ {
		du, dv := c.Uvarint(), c.Uvarint()
		if du >= uint64(n) || dv >= uint64(n) {
			c.Failf("edge gap (%d,%d) exceeds the %d nodes", du, dv, n)
			break
		}
		if du > 0 {
			prevV = 0
		} else if i > 0 && dv == 0 {
			c.Failf("edge list not strictly ascending")
			break
		}
		u, v := prevU+int64(du), prevV+int64(dv)
		if u >= n || v >= n || u == v {
			c.Failf("edge %d→%d is a self-loop or out of range [0,%d)", u, v, n)
			break
		}
		us, vs = append(us, int32(u)), append(vs, int32(v))
		prevU, prevV = u, v
	}
	return us, vs
}

// ---------------------------------------------------------------------------
// Serialisation (disk-backed reuse across processes)

// MarshalBinary serialises the trajectory with the trace binlog's framing
// idioms: a magic + version header, varint-framed sections, an FNV-64a
// config hash over the framing and start snapshot, and a CRC32-IEEE
// trailer over everything before it.
func (t *Trajectory) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, len(t.data)+len(t.start)+64)
	b = append(b, trajMagic...)
	b = binary.AppendUvarint(b, trajVersion)
	b = binary.AppendUvarint(b, uint64(t.n))
	b = binary.AppendUvarint(b, uint64(t.steps))
	b = binary.AppendUvarint(b, uint64(t.every))
	if t.dynamic {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(t.start)))
	b = append(b, t.start...)
	b = binary.AppendUvarint(b, uint64(len(t.anchors)))
	for _, a := range t.anchors {
		b = binary.AppendUvarint(b, uint64(a.Step))
		b = binary.AppendUvarint(b, uint64(len(a.Snap)))
		b = append(b, a.Snap...)
	}
	b = binary.AppendUvarint(b, uint64(t.records))
	b = binary.AppendUvarint(b, uint64(len(t.data)))
	b = append(b, t.data...)
	b = binary.LittleEndian.AppendUint64(b, t.hash)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// UnmarshalTrajectory decodes and fully validates a serialised trajectory:
// a corrupted stream — truncated churn lists, bit-flipped anchors, a
// mismatched config hash — yields a clean ErrTrajectoryCorrupt-wrapped
// error, never a panic or a divergent replay world.
func UnmarshalTrajectory(b []byte) (*Trajectory, error) {
	if len(b) < len(trajMagic)+4 {
		return nil, trajCorrupt("short buffer: %d bytes", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, trajCorrupt("CRC mismatch: stored %08x, computed %08x", got, want)
	}
	if string(body[:len(trajMagic)]) != trajMagic {
		return nil, trajCorrupt("bad magic %q", body[:len(trajMagic)])
	}
	r := trace.NewCursor(body[len(trajMagic):], ErrTrajectoryCorrupt)
	if version := r.Uvarint(); version != trajVersion && r.Err() == nil {
		return nil, trajCorrupt("format version %d is not the supported %d", version, trajVersion)
	}
	t := &Trajectory{}
	t.n = int(r.Uvarint())
	t.steps = int(r.Uvarint())
	t.every = int(r.Uvarint())
	t.dynamic = r.Byte() == 1
	t.start = r.Take(int(r.Uvarint()))
	if anchors := r.Uvarint(); anchors > uint64(max(t.steps, 0)) {
		r.Failf("anchor count %d exceeds the %d-step horizon", anchors, t.steps)
	} else {
		for i := 0; i < int(anchors) && r.Err() == nil; i++ {
			step := int(r.Uvarint())
			t.anchors = append(t.anchors, TrajAnchor{Step: step, Snap: r.Take(int(r.Uvarint()))})
		}
	}
	t.records = int(r.Uvarint())
	t.data = r.Take(int(r.Uvarint()))
	t.hash = r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("network: trajectory header: %w", err)
	}
	if r.Len() != 0 {
		// t.hash is the final header field; anything left over is junk.
		return nil, trajCorrupt("%d trailing bytes before the checksum", r.Len())
	}
	if t.records < 0 || t.records > t.steps {
		return nil, trajCorrupt("record count %d outside [0,%d]", t.records, t.steps)
	}
	if err := json.Unmarshal(t.start, &t.snap); err != nil {
		return nil, trajCorrupt("start snapshot does not parse: %v", err)
	}
	if want := trace.ConfigHashOf(t.hashInput()); want != t.hash {
		return nil, trajCorrupt("config hash mismatch: stored %016x, computed %016x", t.hash, want)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Save writes the serialised trajectory to path.
func (t *Trajectory) Save(path string) error {
	b, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadTrajectory reads and validates a trajectory file written by Save.
func LoadTrajectory(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalTrajectory(b)
}
