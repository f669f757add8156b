package network

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// sameWorldState compares every observable the harnesses read: topology,
// alive mask, gateway set, fault epoch, partition, positions, and ranges.
func sameWorldState(t *testing.T, step int, live, rep *World) {
	t.Helper()
	if diff, ok := sameTopology(live.Topology(), rep.Topology()); !ok {
		t.Fatalf("step %d: replay topology diverges: %s", step, diff)
	}
	if live.AliveCount() != rep.AliveCount() {
		t.Fatalf("step %d: alive %d vs %d", step, live.AliveCount(), rep.AliveCount())
	}
	if live.FaultEpoch() != rep.FaultEpoch() {
		t.Fatalf("step %d: epoch %d vs %d", step, live.FaultEpoch(), rep.FaultEpoch())
	}
	if ga, gb := fmt.Sprint(live.Gateways()), fmt.Sprint(rep.Gateways()); ga != gb {
		t.Fatalf("step %d: gateways %s vs %s", step, ga, gb)
	}
	cutA, actA := live.Partition()
	cutB, actB := rep.Partition()
	if actA != actB || cutA != cutB {
		t.Fatalf("step %d: partition (%v,%v) vs (%v,%v)", step, cutA, actA, cutB, actB)
	}
	for u := 0; u < live.N(); u++ {
		if live.pos[u] != rep.pos[u] {
			t.Fatalf("step %d: node %d at %v vs %v", step, u, live.pos[u], rep.pos[u])
		}
		if lr, rr := live.radios[u].Range(), rep.radios[u].Range(); lr != rr {
			t.Fatalf("step %d: node %d range %v vs %v", step, u, lr, rr)
		}
	}
}

// TestTrajectoryReplayMatchesLive is the tentpole equivalence gate: under
// every fault preset, the scripted all-kinds schedule, and a clean dynamic
// run, a replayed trajectory must match live stepping bit for bit at every
// step — and every stored anchor must equal the replay world's snapshot at
// that step.
func TestTrajectoryReplayMatchesLive(t *testing.T) {
	const n, steps = 120, 120
	gateways := []NodeID{0, 40, 80}
	scheds := faultSchedules(n, gateways, steps)
	scheds["clean"] = nil
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			recWorld := buildFaultWorld(t, n, gateways, 3)
			if sched != nil {
				recWorld.SetFaults(sched)
			}
			traj, err := RecordTrajectory(recWorld, steps, 30)
			if err != nil {
				t.Fatal(err)
			}
			if traj.Steps() != steps {
				t.Fatalf("trajectory covers %d steps, want %d", traj.Steps(), steps)
			}
			live := buildFaultWorld(t, n, gateways, 3)
			if sched != nil {
				live.SetFaults(sched)
			}
			rep, err := traj.World()
			if err != nil {
				t.Fatal(err)
			}
			if sched != nil {
				rep.SetFaults(sched)
			}
			if rep.Dynamic() != live.Dynamic() {
				t.Fatalf("replay world dynamic=%v, live=%v", rep.Dynamic(), live.Dynamic())
			}
			anchors := traj.Anchors()
			for step := 1; step <= steps; step++ {
				live.Step()
				rep.Step()
				sameWorldState(t, step, live, rep)
				for _, a := range anchors {
					if a.Step == step {
						got, err := json.Marshal(rep.Snapshot())
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, a.Snap) {
							t.Fatalf("step %d: replay snapshot differs from stored anchor", step)
						}
					}
				}
			}
			if rem := rep.TrajectoryRemaining(); rem != 0 {
				t.Fatalf("TrajectoryRemaining = %d after full replay, want 0", rem)
			}
			if sched != nil && live.FaultEpoch() == 0 {
				t.Fatal("schedule fired no events — equivalence is vacuous")
			}
		})
	}
}

// TestTrajectoryReplayCounters pins the instrument parity: a replay world
// with a registry attached reports the same faults_* and link-churn
// counters as the live run.
func TestTrajectoryReplayCounters(t *testing.T) {
	const n, steps = 80, 80
	gateways := []NodeID{0, 30}
	sched, err := faults.Preset("blackout", n, gateways, steps, 99)
	if err != nil {
		t.Fatal(err)
	}
	recWorld := buildFaultWorld(t, n, gateways, 7)
	recWorld.SetFaults(sched)
	traj, err := RecordTrajectory(recWorld, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w *World) *metrics.Registry {
		reg := metrics.NewRegistry()
		w.Instrument(reg)
		w.SetFaults(sched)
		for i := 0; i < steps; i++ {
			w.Step()
		}
		return reg
	}
	liveReg := run(buildFaultWorld(t, n, gateways, 7))
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	repReg := run(rep)
	for _, c := range []string{"faults_injected_total", "faults_recovered_total", "world_steps_total"} {
		if lv, rv := liveReg.Counter(c).Value(), repReg.Counter(c).Value(); lv != rv {
			t.Errorf("%s: live %d vs replay %d", c, lv, rv)
		}
	}
	if lv, rv := liveReg.Gauge("faults_nodes_down").Value(), repReg.Gauge("faults_nodes_down").Value(); lv != rv {
		t.Errorf("faults_nodes_down: live %v vs replay %v", lv, rv)
	}
	if lv, rv := liveReg.Gauge("world_edges").Value(), repReg.Gauge("world_edges").Value(); lv != rv {
		t.Errorf("world_edges: live %v vs replay %v", lv, rv)
	}
	// Live full-rebuild churn counting and the replay's recorded churn must
	// agree (the incremental engine pins the same equality to the rebuild
	// diff in its own tests).
	for _, c := range []string{"world_links_added_total", "world_links_removed_total"} {
		if lv, rv := liveReg.Counter(c).Value(), repReg.Counter(c).Value(); lv != rv {
			t.Errorf("%s: live %d vs replay %d", c, lv, rv)
		}
	}
}

// TestTrajectoryStaticWorld checks the static fast path: a static faulted
// world records only its fault epochs (everything else is gap-coded), and
// the replay still matches live stepping.
func TestTrajectoryStaticWorld(t *testing.T) {
	const n, steps = 60, 200
	gateways := []NodeID{0, 20}
	// A snapshot restore yields a fully static twin: same positions and
	// ranges, static movers.
	snap := buildFaultWorld(t, n, gateways, 9).Snapshot()
	staticWorld := func() *World {
		w, err := snap.World()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sched := faults.NewSchedule([]faults.Event{
		{Step: 20, Kind: faults.NodeDown, Node: 5},
		{Step: 60, Kind: faults.PartitionStart, Factor: 0.5},
		{Step: 120, Kind: faults.PartitionEnd},
		{Step: 150, Kind: faults.NodeUp, Node: 5, Respawn: true, RX: 0.25, RY: 0.75},
	})
	recWorld := staticWorld()
	recWorld.SetFaults(sched)
	traj, err := RecordTrajectory(recWorld, steps, 50)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Dynamic() {
		t.Fatal("static world recorded as dynamic")
	}
	if traj.Records() != sched.Len() && traj.Records() > 4 {
		t.Fatalf("static trajectory holds %d records for 4 fault epochs", traj.Records())
	}
	live := staticWorld()
	live.SetFaults(sched)
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	rep.SetFaults(sched)
	for step := 1; step <= steps; step++ {
		live.Step()
		rep.Step()
		sameWorldState(t, step, live, rep)
	}
}

// TestTrajectoryExhaustionPanics pins the horizon contract.
func TestTrajectoryExhaustionPanics(t *testing.T) {
	w := buildFaultWorld(t, 30, []NodeID{0}, 5)
	traj, err := RecordTrajectory(w, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rep.Step()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stepping past the trajectory horizon did not panic")
		}
	}()
	rep.Step()
}

// TestTrajectoryMarshalRoundTrip serialises a faulted trajectory, decodes
// it, and demands the decoded copy replay bit-identically to the original.
func TestTrajectoryMarshalRoundTrip(t *testing.T) {
	const n, steps = 80, 100
	gateways := []NodeID{0, 30}
	sched, err := faults.Preset("blackout", n, gateways, steps, 17)
	if err != nil {
		t.Fatal(err)
	}
	w := buildFaultWorld(t, n, gateways, 13)
	w.SetFaults(sched)
	traj, err := RecordTrajectory(w, steps, 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traj.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTrajectory(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Steps() != traj.Steps() || back.N() != traj.N() ||
		back.Records() != traj.Records() || back.Dynamic() != traj.Dynamic() {
		t.Fatalf("framing changed in round trip: %+v vs %+v", back, traj)
	}
	w1, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := back.World()
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= steps; step++ {
		w1.Step()
		w2.Step()
		if diff, ok := sameTopology(w1.Topology(), w2.Topology()); !ok {
			t.Fatalf("step %d: decoded replay diverges: %s", step, diff)
		}
		if !reflect.DeepEqual(w1.Snapshot(), w2.Snapshot()) {
			t.Fatalf("step %d: decoded replay snapshot diverges", step)
		}
	}
}

// TestTrajectoryCorruptionRejected walks a table of corruptions — the
// serialised form must fail with a clean ErrTrajectoryCorrupt error, never
// a panic.
func TestTrajectoryCorruptionRejected(t *testing.T) {
	w := buildFaultWorld(t, 40, []NodeID{0}, 21)
	sched, err := faults.Preset("churn", 40, []NodeID{0}, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(sched)
	traj, err := RecordTrajectory(w, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := traj.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:8],
		"truncated": valid[:len(valid)/2],
		"bad-magic": append([]byte("NOTMAGIC"), valid[8:]...),
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40
	cases["bit-flip-mid"] = flip
	flipAnchor := append([]byte(nil), valid...)
	flipAnchor[len(trajMagic)+20] ^= 0x01
	cases["bit-flip-header"] = flipAnchor
	for name, data := range cases {
		if _, err := UnmarshalTrajectory(data); err == nil {
			t.Errorf("%s: corruption accepted", name)
		} else if !errors.Is(err, ErrTrajectoryCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrTrajectoryCorrupt", name, err)
		}
	}
}

// TestTrajectoryOldVersionRejected: an intact file whose version field
// says 1 — the layout before records carried the trace world-delta body —
// fails with an ErrTrajectoryCorrupt-wrapped version error.
func TestTrajectoryOldVersionRejected(t *testing.T) {
	w := buildFaultWorld(t, 40, []NodeID{0}, 21)
	traj, err := RecordTrajectory(w, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traj.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), b[:len(b)-4]...)
	if body[len(trajMagic)] != trajVersion {
		t.Fatalf("version byte %d, want %d", body[len(trajMagic)], trajVersion)
	}
	body[len(trajMagic)] = 1
	_, err = UnmarshalTrajectory(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
	if !errors.Is(err, ErrTrajectoryCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 file: got %v, want an ErrTrajectoryCorrupt version error", err)
	}
}

// TestTrajectorySourceRecordsOnce drives one TrajectorySource from many
// goroutines (the -race CI gates catch unsynchronised recording) and checks
// the build function ran exactly once while every world replays the same
// trajectory.
func TestTrajectorySourceRecordsOnce(t *testing.T) {
	const n, steps, workers = 60, 50, 8
	var builds atomic.Int32
	src := NewTrajectorySource(steps, 0, nil, func() (*World, error) {
		builds.Add(1)
		return buildFaultWorld(t, n, []NodeID{0}, 11), nil
	})
	snaps := make([]Snapshot, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w, err := src.WorldFor(slot)
			if err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < steps; s++ {
				w.Step()
			}
			snaps[slot] = w.Snapshot()
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for i := 1; i < workers; i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("worker %d replayed a different world", i)
		}
	}
}

// FuzzTrajectoryDecode fuzzes the serialised form: any input must either
// fail cleanly or decode into a trajectory whose full replay neither panics
// nor breaks world invariants.
func FuzzTrajectoryDecode(f *testing.F) {
	w := buildFaultWorld(f, 40, []NodeID{0, 20}, 31)
	sched, err := faults.Preset("blackout", 40, []NodeID{0, 20}, 60, 77)
	if err != nil {
		f.Fatal(err)
	}
	w.SetFaults(sched)
	traj, err := RecordTrajectory(w, 60, 15)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := traj.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(valid)/3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/4] ^= 0x10
	f.Add(flip)
	f.Add([]byte(trajMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		traj, err := UnmarshalTrajectory(data)
		if err != nil {
			if !errors.Is(err, ErrTrajectoryCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrTrajectoryCorrupt", err)
			}
			return
		}
		w, err := traj.World()
		if err != nil {
			return // snapshot-level rejection is a clean outcome too
		}
		for i := 0; i < traj.Steps(); i++ {
			w.Step()
		}
		if m := w.Topology().M(); m < 0 {
			t.Fatalf("negative edge count %d after replay", m)
		}
	})
}
