package replay_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testSpec is a small dynamic routing world, fast enough to round-trip
// many times per test run.
func testSpec() netgen.Spec {
	spec := netgen.Routing250()
	spec.N = 60
	spec.TargetEdges = 400
	spec.Gateways = 4
	return spec
}

// recordRun executes one sequential routing run recorded into an in-memory
// binary log, returning the log bytes, its meta, and the live result.
func recordRun(t *testing.T, meta replay.RunMeta) ([]byte, routing.Result) {
	t.Helper()
	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lw, err := trace.NewLogWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	sc := routing.Scenario{
		Agents:      20,
		Steps:       meta.Steps,
		Workers:     1,
		Tracer:      lw,
		AnchorEvery: meta.AnchorEvery,
	}
	if meta.FaultPreset != "" {
		sched, err := faults.Preset(meta.FaultPreset, w.N(), w.Gateways(), meta.Steps, meta.WorldSeed)
		if err != nil {
			t.Fatalf("preset: %v", err)
		}
		sc.Faults = sched
	}
	res, err := routing.Run(w, sc, meta.Seed)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("log close: %v", err)
	}
	return buf.Bytes(), res
}

func openLog(t *testing.T, data []byte) (*trace.LogReader, replay.RunMeta) {
	t.Helper()
	lr, err := trace.NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := replay.MetaFromHeader(lr.Header())
	if err != nil {
		t.Fatal(err)
	}
	return lr, meta
}

// TestLogRoundTripDynamicRouting is the restore-correctness gate for
// unfaulted runs: the full log verifies in lockstep against a fresh
// simulation, any individual step reconstructs bit-identically, and the
// log-derived measurement curves equal the live run's series exactly.
func TestLogRoundTripDynamicRouting(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        testSpec(),
		WorldSeed:   1,
		Seed:        7,
		Steps:       80,
		AnchorEvery: 25,
	}
	data, res := recordRun(t, meta)
	lr, gotMeta := openLog(t, data)
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}

	checked, err := replay.VerifyLog(lr, gotMeta)
	if err != nil {
		t.Fatalf("VerifyLog: %v", err)
	}
	// One check per recorded delta plus one per anchor; a dynamic world
	// moves every step.
	if checked < meta.Steps {
		t.Fatalf("VerifyLog checked only %d records over %d steps", checked, meta.Steps)
	}

	for _, step := range []int{0, 1, 24, 25, 26, 57, 79, 80} {
		if err := replay.VerifyAt(lr, gotMeta, step); err != nil {
			t.Fatalf("VerifyAt(%d): %v", step, err)
		}
	}

	sum, err := replay.SummarizeLog(lr)
	if err != nil {
		t.Fatalf("SummarizeLog: %v", err)
	}
	conn := sum.MeasuresByName["connectivity"]
	if len(conn) != len(res.Connectivity) {
		t.Fatalf("log connectivity curve has %d points, live %d", len(conn), len(res.Connectivity))
	}
	for i := range conn {
		if math.Float64bits(conn[i]) != math.Float64bits(res.Connectivity[i]) {
			t.Fatalf("connectivity[%d]: log %v != live %v", i, conn[i], res.Connectivity[i])
		}
	}
	e2e := sum.MeasuresByName["end-to-end"]
	for i := range e2e {
		if math.Float64bits(e2e[i]) != math.Float64bits(res.EndToEnd[i]) {
			t.Fatalf("end-to-end[%d]: log %v != live %v", i, e2e[i], res.EndToEnd[i])
		}
	}
}

// TestLogRoundTripFaultedRuns round-trips every structural fault preset
// through the binary log and asserts (a) the reconstructed world matches
// the live faulted run bit for bit at every step, including snapshot v2
// fault state, and (b) the recovery statistics recomputed purely from the
// log equal the live harness's bit for bit.
func TestLogRoundTripFaultedRuns(t *testing.T) {
	for _, preset := range []string{"churn", "gwfail", "partition"} {
		t.Run(preset, func(t *testing.T) {
			meta := replay.RunMeta{
				Scenario:    "routing",
				Spec:        testSpec(),
				WorldSeed:   3,
				Seed:        11,
				Steps:       120,
				FaultPreset: preset,
				AnchorEvery: 30,
			}
			data, res := recordRun(t, meta)
			lr, gotMeta := openLog(t, data)

			if _, err := replay.VerifyLog(lr, gotMeta); err != nil {
				t.Fatalf("VerifyLog: %v", err)
			}
			sum, err := replay.SummarizeLog(lr)
			if err != nil {
				t.Fatalf("SummarizeLog: %v", err)
			}
			if len(sum.FaultSteps) == 0 {
				t.Fatal("faulted run logged no fault events")
			}
			// Spot-check reconstruction right at the fault transitions the
			// log recorded, plus the run's endpoints.
			probes := append([]int{0, meta.Steps / 2, meta.Steps}, sum.FaultSteps...)
			for _, step := range probes {
				if err := replay.VerifyAt(lr, gotMeta, step); err != nil {
					t.Fatalf("VerifyAt(%d): %v", step, err)
				}
			}
			gotRec, err := sum.Recovery("connectivity", 0.02)
			if err != nil {
				t.Fatal(err)
			}
			compareRecovery(t, "connectivity", gotRec, res.Recovery)
			gotE2E, err := sum.Recovery("end-to-end", 0.02)
			if err != nil {
				t.Fatal(err)
			}
			compareRecovery(t, "end-to-end", gotE2E, res.RecoveryEndToEnd)
		})
	}
}

// TestLogAndTrajectoryAgree pins the two containers of the world-delta
// codec against each other: one Routing250 churn run recorded by the
// routing harness into a binary log, and an identical world recorded with
// RecordTrajectory and replayed, must yield the same world at every step —
// the log's ReconstructAt against the replay world's snapshot — and the
// trajectory's stored anchors must equal the log's anchors byte for byte.
func TestLogAndTrajectoryAgree(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        netgen.Routing250(),
		WorldSeed:   2,
		Seed:        5,
		Steps:       150,
		FaultPreset: "churn",
		AnchorEvery: 50,
	}
	data, _ := recordRun(t, meta)
	lr, _ := openLog(t, data)
	logAnchors := make(map[int]string)
	err := lr.Scan(func(r trace.Record) error {
		if r.Kind == trace.RecordAnchor {
			logAnchors[r.Step] = string(r.Anchor)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatal(err)
	}
	traj, err := network.RecordTrajectory(w, meta.Steps, meta.AnchorEvery)
	if err != nil {
		t.Fatal(err)
	}
	// The harness anchors before each step it runs, so the log has no
	// anchor at the final step; every other trajectory anchor has a twin.
	shared := 0
	for _, a := range traj.Anchors() {
		if snap, ok := logAnchors[a.Step]; ok {
			shared++
			if snap != string(a.Snap) {
				t.Fatalf("trajectory anchor at step %d differs from the log's", a.Step)
			}
		}
	}
	if shared == 0 {
		t.Fatal("trajectory and log share no anchor step")
	}
	rep, err := traj.World()
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for step := 0; step <= meta.Steps; step++ {
		if step > 0 {
			rep.Step()
		}
		fromLog, err := replay.ReconstructAt(lr, step)
		if err != nil {
			t.Fatalf("ReconstructAt(%d): %v", step, err)
		}
		a, _ := json.Marshal(fromLog)
		b, _ := json.Marshal(rep.Snapshot())
		if string(a) != string(b) {
			t.Fatalf("step %d: log reconstruction and trajectory replay disagree", step)
		}
		if len(fromLog.Dead) > 0 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("churn preset killed no node: the fault path went untested")
	}
}

// TestReconstructRejectsOutOfRangeDelta: a log whose world delta names
// node n of an n-node world is corrupt, and reconstruction and
// verification say so instead of skipping the entry.
func TestReconstructRejectsOutOfRangeDelta(t *testing.T) {
	meta := replay.RunMeta{Scenario: "routing", Spec: testSpec(), WorldSeed: 1, Seed: 1, Steps: 1, AnchorEvery: 1}
	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := json.Marshal(w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	logWithNode := func(u int32) []byte {
		var buf bytes.Buffer
		lw, err := trace.NewLogWriter(&buf, hdr)
		if err != nil {
			t.Fatal(err)
		}
		lw.EmitAnchor(0, anchor)
		lw.EmitWorld(trace.WorldDelta{Step: 1, Nodes: []int32{u}, X: []float64{1}, Y: []float64{2}})
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	n := int32(w.N())
	lr, _ := openLog(t, logWithNode(n-1))
	if _, err := replay.ReconstructAt(lr, 1); err != nil {
		t.Fatalf("delta naming node n-1: %v", err)
	}
	lr, gotMeta := openLog(t, logWithNode(n))
	if _, err := replay.ReconstructAt(lr, 1); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("ReconstructAt with a delta naming node n: got %v, want ErrCorrupt", err)
	}
	if _, err := replay.VerifyLog(lr, gotMeta); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("VerifyLog with a delta naming node n: got %v, want ErrCorrupt", err)
	}
}

// compareRecovery asserts two recovery measurements are bit-identical.
func compareRecovery(t *testing.T, what string, got, want stats.RecoveryStats) {
	t.Helper()
	if got.Recovered != want.Recovered || got.Censored != want.Censored {
		t.Fatalf("%s: recovered/censored %d/%d, live %d/%d",
			what, got.Recovered, got.Censored, want.Recovered, want.Censored)
	}
	if math.Float64bits(got.MeanSteps) != math.Float64bits(want.MeanSteps) {
		t.Fatalf("%s: MeanSteps %v != live %v", what, got.MeanSteps, want.MeanSteps)
	}
	if math.Float64bits(got.Floor) != math.Float64bits(want.Floor) {
		t.Fatalf("%s: Floor %v != live %v", what, got.Floor, want.Floor)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: %d recovery events, live %d", what, len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		g, w := got.Events[i], want.Events[i]
		if g.Step != w.Step || g.Recovered != w.Recovered || g.Steps != w.Steps ||
			math.Float64bits(g.Baseline) != math.Float64bits(w.Baseline) ||
			math.Float64bits(g.Floor) != math.Float64bits(w.Floor) {
			t.Fatalf("%s: recovery event %d: log %+v != live %+v", what, i, g, w)
		}
	}
}

// TestSummaryBuilderMatchesSummarize pins the streaming builder against
// the slice-based Summarize on a recorded event stream.
func TestSummaryBuilderMatchesSummarize(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        testSpec(),
		WorldSeed:   1,
		Seed:        7,
		Steps:       40,
		AnchorEvery: 20,
	}
	data, _ := recordRun(t, meta)
	lr, _ := openLog(t, data)

	var events []trace.Event
	b := replay.NewSummaryBuilder()
	err := lr.Scan(func(r trace.Record) error {
		if r.Kind == trace.RecordEvent {
			events = append(events, r.Event)
			b.Add(r.Event)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := replay.Summarize(events)
	stream := b.Summary()
	if stream.String() != batch.String() {
		t.Fatalf("streaming summary %q != batch %q", stream.String(), batch.String())
	}
	if len(stream.Measures) != len(batch.Measures) || stream.MeasureName != batch.MeasureName {
		t.Fatal("streaming and batch measure curves differ")
	}
	for i := range stream.Measures {
		if stream.Measures[i] != batch.Measures[i] {
			t.Fatalf("measure %d differs", i)
		}
	}
	if len(stream.DepositsPerStep) != len(batch.DepositsPerStep) {
		t.Fatal("deposit curves differ in length")
	}
	for i := range stream.DepositsPerStep {
		if stream.DepositsPerStep[i] != batch.DepositsPerStep[i] {
			t.Fatalf("deposits[%d] differ", i)
		}
	}
}
