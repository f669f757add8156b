package network

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// sinkBuffer captures everything a StepRecorder emits, deep-copying the
// reused delta buffers.
type sinkBuffer struct {
	anchors map[int][]byte
	deltas  []trace.WorldDelta
}

func (s *sinkBuffer) Emit(trace.Event) {}

func (s *sinkBuffer) EmitAnchor(step int, snapshot []byte) {
	if s.anchors == nil {
		s.anchors = make(map[int][]byte)
	}
	s.anchors[step] = append([]byte(nil), snapshot...)
}

func (s *sinkBuffer) EmitWorld(d trace.WorldDelta) {
	c := d
	c.Nodes = append([]int32(nil), d.Nodes...)
	c.X = append([]float64(nil), d.X...)
	c.Y = append([]float64(nil), d.Y...)
	c.RangeNodes = append([]int32(nil), d.RangeNodes...)
	c.Ranges = append([]float64(nil), d.Ranges...)
	c.Dead = append([]int32(nil), d.Dead...)
	c.DownGateways = append([]int32(nil), d.DownGateways...)
	s.deltas = append(s.deltas, c)
}

// recorderWorld is a small mixed world: one mobile node, one battery node
// (range decays every step), two static anchored nodes.
func recorderWorld(t *testing.T) *World {
	t.Helper()
	s := rng.New(99).Named("record-test")
	w, err := NewWorld(Config{
		Arena: geom.Square(50),
		Positions: []geom.Point{
			{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 25, Y: 5}, {X: 35, Y: 5},
		},
		Radios: []radio.Radio{
			radio.New(12), radio.NewBattery(12, 0.01, 0), radio.New(12), radio.New(12),
		},
		Movers: []mobility.Mover{
			mobility.NewConstantVelocity(geom.Square(50), 2, s),
			mobility.Static{}, mobility.Static{}, mobility.Static{},
		},
		Gateways: []NodeID{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStepRecorderStreams drives the recorder through the documented
// protocol and checks anchors land on the cadence with the world's exact
// snapshot, and that applying each delta to the previous state reproduces
// the world that emitted it.
func TestStepRecorderStreams(t *testing.T) {
	w := recorderWorld(t)
	sink := &sinkBuffer{}
	rec := NewStepRecorder(w, sink, 4)
	const steps = 10
	for step := 0; step < steps; step++ {
		rec.BeforeStep(step)
		want, err := json.Marshal(w.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if step%4 == 0 {
			if got := sink.anchors[step]; string(got) != string(want) {
				t.Fatalf("anchor at step %d does not match world snapshot", step)
			}
		} else if _, ok := sink.anchors[step]; ok {
			t.Fatalf("unexpected anchor at step %d", step)
		}
		w.Step()
		rec.AfterWorldStep()
	}
	if len(sink.anchors) != 3 { // steps 0, 4, 8
		t.Fatalf("recorded %d anchors, want 3", len(sink.anchors))
	}
	// The mobile node moves and the battery node decays every step: one
	// delta per step, each carrying both streams.
	if len(sink.deltas) != steps {
		t.Fatalf("recorded %d deltas, want %d", len(sink.deltas), steps)
	}
	for i, d := range sink.deltas {
		if d.Step != i+1 {
			t.Fatalf("delta %d labeled step %d, want %d", i, d.Step, i+1)
		}
		if len(d.Nodes) == 0 || d.Nodes[0] != 0 {
			t.Fatalf("delta %d misses the mobile node: %+v", i, d.Nodes)
		}
		if len(d.RangeNodes) != 1 || d.RangeNodes[0] != 1 {
			t.Fatalf("delta %d misses the decaying radio: %+v", i, d.RangeNodes)
		}
		if d.FaultChanged {
			t.Fatalf("delta %d reports a fault change on a fault-free world", i)
		}
	}
}

// TestStepRecorderStaticWorldSkipsDeltas: a fully static world records
// anchors but no deltas at all.
func TestStepRecorderSkipsEmptyDeltas(t *testing.T) {
	w := lineWorld(t, 4, 10, 10.5, 0, 3)
	sink := &sinkBuffer{}
	rec := NewStepRecorder(w, sink, 5)
	for step := 0; step < 6; step++ {
		rec.BeforeStep(step)
		w.Step()
		rec.AfterWorldStep()
	}
	if len(sink.deltas) != 0 {
		t.Fatalf("static world recorded %d deltas", len(sink.deltas))
	}
	if len(sink.anchors) != 2 {
		t.Fatalf("recorded %d anchors, want 2", len(sink.anchors))
	}
}

// TestStepRecorderFaultTransition: a scheduled node death shows up as one
// FaultChanged delta carrying the full replacement fault state.
func TestStepRecorderFaultTransition(t *testing.T) {
	w := recorderWorld(t)
	w.SetFaults(faults.NewSchedule([]faults.Event{
		{Step: 3, Kind: faults.NodeDown, Node: 2},
	}))

	sink := &sinkBuffer{}
	rec := NewStepRecorder(w, sink, 100)
	for step := 0; step < 6; step++ {
		rec.BeforeStep(step)
		w.Step()
		rec.AfterWorldStep()
	}
	var faulted []trace.WorldDelta
	for _, d := range sink.deltas {
		if d.FaultChanged {
			faulted = append(faulted, d)
		}
	}
	if len(faulted) != 1 {
		t.Fatalf("recorded %d fault transitions, want 1", len(faulted))
	}
	d := faulted[0]
	if len(d.Dead) != 1 || d.Dead[0] != 2 {
		t.Fatalf("fault delta dead list = %v, want [2]", d.Dead)
	}
	if d.Partition || len(d.DownGateways) != 0 {
		t.Fatalf("fault delta carries unexpected state: %+v", d)
	}
}

// TestStepRecorderNilSink: a nil sink yields a nil recorder whose methods
// are safe no-ops, so harness wiring needs no conditionals.
func TestStepRecorderNilSink(t *testing.T) {
	w := recorderWorld(t)
	rec := NewStepRecorder(w, nil, 10)
	if rec != nil {
		t.Fatal("nil sink should yield a nil recorder")
	}
	rec.BeforeStep(0)
	w.Step()
	rec.AfterWorldStep()
}

// TestStepRecorderAnchorEveryOne pins the densest anchor cadence: with
// AnchorEvery=1 the recorder must anchor before every harness step, each
// anchor must equal the world's snapshot at that instant, and every
// non-empty world step must still emit exactly one delta labeled step+1.
func TestStepRecorderAnchorEveryOne(t *testing.T) {
	const steps = 25
	w := buildFaultWorld(t, 50, []NodeID{0}, 19)
	sink := &sinkBuffer{}
	rec := NewStepRecorder(w, sink, 1)
	if rec == nil {
		t.Fatal("recorder is nil for a non-nil sink")
	}
	want := make(map[int][]byte)
	for step := 0; step < steps; step++ {
		b, err := json.Marshal(w.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want[step] = b
		rec.BeforeStep(step)
		w.Step()
		rec.AfterWorldStep()
	}
	if len(sink.anchors) != steps {
		t.Fatalf("got %d anchors, want one per step (%d)", len(sink.anchors), steps)
	}
	for step, b := range want {
		if !bytes.Equal(sink.anchors[step], b) {
			t.Fatalf("anchor at step %d does not match the world snapshot", step)
		}
	}
	// A dynamic world moves every step here, so the deltas must cover steps
	// 1..steps in order.
	if len(sink.deltas) != steps {
		t.Fatalf("got %d deltas, want %d", len(sink.deltas), steps)
	}
	for i, d := range sink.deltas {
		if d.Step != i+1 {
			t.Fatalf("delta %d labeled step %d, want %d", i, d.Step, i+1)
		}
	}
}
