package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"agent_steps_per_s", "1/s"},
	{"replay_s", "s"},
	{"log_bytes_per_step", "B/step"},
}

// perLayer are the metrics a --trace 1 run prints. Seconds are self time
// per pass (or per set-up for netgen.generate_s, per read-back for
// replay.*), counts are per pass; layers are named after internal/
// packages.
var perLayer = []metricDef{
	{"netgen.generate_s", "s"},
	{"netgen.pass_s", "s"},
	{"network.step_s", "s"},
	{"network.mobility_s", "s"},
	{"network.radio_decay_s", "s"},
	{"network.topology_s", "s"},
	{"network.links_changed_per_step", "count"},
	{"network.record_s", "s"},
	{"mapping.learn_s", "s"},
	{"mapping.meet_s", "s"},
	{"mapping.decide_s", "s"},
	{"mapping.move_s", "s"},
	{"mapping.measure_s", "s"},
	{"mapping.unattributed_s", "s"},
	{"mapping.meetings", "count"},
	{"mapping.topo_records_merged", "count"},
	{"mapping.merged_per_meeting", "count"},
	{"routing.decide_s", "s"},
	{"routing.meet_s", "s"},
	{"routing.move_s", "s"},
	{"routing.deposit_s", "s"},
	{"routing.measure_s", "s"},
	{"routing.unattributed_s", "s"},
	{"routing.moves", "count"},
	{"routing.meetings", "count"},
	{"routing.deposits", "count"},
	{"routing.route_adoptions", "count"},
	{"routing.route_evictions", "count"},
	{"routing.resync_frac", "1/step"},
	{"faults.injected", "count"},
	{"faults.routes_purged", "count"},
	{"faults.stranded_agents", "count"},
	{"trace.emit_s", "s"},
	{"trace.events", "count"},
	{"trace.bytes_written", "B"},
	{"trace.bytes_per_event", "B"},
	{"replay.load_s", "s"},
	{"replay.verify_s", "s"},
	{"replay.summary_s", "s"},
	{"replay.reconstruct_s", "s"},
	{"replay.blocks_read", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.peak_rss_mb", "MB"}, // the process's peak resident set, traced passes included
	{"bench.trace_overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric without a definition: " + name)
}

// timedLayers are the per-pass self times that partition a pass's wall
// time; whatever they leave uncovered is the harness's unattributed_s.
var timedLayers = []string{
	"netgen.pass_s",
	"network.step_s",
	"network.record_s",
	"mapping.learn_s", "mapping.meet_s", "mapping.decide_s", "mapping.move_s", "mapping.measure_s",
	"routing.decide_s", "routing.meet_s", "routing.move_s", "routing.deposit_s", "routing.measure_s",
	"trace.emit_s",
}

// prediction records, before measuring, which end-to-end metric a layer
// metric should move and where it should stay flat.
type prediction struct {
	layer, moves string
	on, flatOn   []string
}

var predictions = []prediction{
	{"netgen.generate_s", "setup_s", []string{"mapping-coop", "routing-paper", "log-roundtrip"}, nil},
	{"network.step_s", "wall_s", []string{"log-roundtrip"}, []string{"mapping-coop"}},
	{"network.record_s", "wall_s", []string{"routing-paper"}, nil},
	{"mapping.meet_s", "wall_s", []string{"mapping-coop"}, nil},
	{"mapping.decide_s", "wall_s", []string{"mapping-coop"}, nil},
	{"routing.move_s", "wall_s", []string{"routing-paper"}, []string{"mapping-coop"}},
	{"routing.meet_s", "wall_s", []string{"routing-paper"}, []string{"mapping-coop"}},
	{"routing.measure_s", "wall_s", []string{"log-roundtrip"}, nil},
	{"routing.resync_frac", "wall_s", []string{"log-roundtrip"}, nil},
	{"faults.injected", "wall_s", []string{"log-roundtrip"}, nil},
	{"trace.emit_s", "wall_s", []string{"log-roundtrip"}, nil},
	{"trace.bytes_per_event", "log_bytes_per_step", []string{"log-roundtrip"}, nil},
	{"replay.verify_s", "replay_s", []string{"log-roundtrip"}, nil},
	{"go.alloc_mb", "wall_s", []string{"mapping-coop", "routing-paper", "log-roundtrip"}, nil},
}

// largestLayer is the layer the profile says dominates each workload's
// pass; the traced table reports whether the run agrees.
var largestLayer = map[string]string{
	"mapping-coop":  "mapping.meet_s",
	"log-roundtrip": "trace.emit_s",
}

// tracer collects one traced section: a registry attached to every
// scenario, and benchmark-side spans (seconds) around public calls. A nil
// *tracer is the untraced mode; every method is a no-op on it.
type tracer struct {
	reg   *metrics.Registry
	spans map[string]float64
	snap  metrics.Snapshot

	// recording state for network.record_s (see recordStart).
	recPending bool
	recStart   time.Time
	recPhases  float64
}

func newTracer() *tracer {
	return &tracer{reg: metrics.NewRegistry(), spans: map[string]float64{}}
}

func (t *tracer) registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// span adds the time since t0 to the named span.
func (t *tracer) span(name string, t0 time.Time) {
	if t != nil {
		t.spans[name] += since(t0)
	}
}

// routingPhases sums the routing phase timers recorded so far.
func (t *tracer) routingPhases() float64 {
	t.reg.Snapshot(&t.snap)
	s := 0.0
	for _, name := range []string{"decide", "meet", "move", "deposit", "measure"} {
		s += histSum(&t.snap, "routing_phase_"+name+"_seconds")
	}
	return s
}

// recordStart marks the end of world generation inside a
// RunManyCached build callback: the trajectory recording starts now.
func (t *tracer) recordStart() {
	if t == nil {
		return
	}
	t.recPending = true
	t.recPhases = t.routingPhases()
	t.recStart = time.Now()
}

// recordEnd closes the recording span at the first simulated step after
// recordStart (a routing Observer calls it every step). The span then
// covers the recording plus the construction of the first replay world,
// minus the routing phases of that first step.
func (t *tracer) recordEnd() {
	if !t.recPending {
		return
	}
	t.recPending = false
	t.spans["network.record_s"] += since(t.recStart) - (t.routingPhases() - t.recPhases)
}

// timedSink wraps a LogWriter so the time spent inside its methods is
// measured. Emits of deposit and meeting events happen inside the routing
// deposit and meet timers; they are tracked apart so those phases can be
// reported as self time.
type timedSink struct {
	sink              trace.WorldSink
	total             time.Duration
	inDeposit, inMeet time.Duration
}

func (s *timedSink) Emit(e trace.Event) {
	t0 := time.Now()
	s.sink.Emit(e)
	d := time.Since(t0)
	s.total += d
	switch e.Kind {
	case trace.KindDeposit:
		s.inDeposit += d
	case trace.KindMeet:
		s.inMeet += d
	}
}

func (s *timedSink) EmitAnchor(step int, snapshot []byte) {
	t0 := time.Now()
	s.sink.EmitAnchor(step, snapshot)
	s.total += time.Since(t0)
}

func (s *timedSink) EmitWorld(d trace.WorldDelta) {
	t0 := time.Now()
	s.sink.EmitWorld(d)
	s.total += time.Since(t0)
}

// addSink folds a finished sink's times into the tracer's spans.
func (t *tracer) addSink(s *timedSink) {
	t.spans["trace.emit_s"] += s.total.Seconds()
	t.spans["trace.emit_in_deposit_s"] += s.inDeposit.Seconds()
	t.spans["trace.emit_in_meet_s"] += s.inMeet.Seconds()
}

func histSum(s *metrics.Snapshot, name string) float64 {
	for _, h := range s.Hists {
		if h.Name == name {
			return h.Sum
		}
	}
	return 0
}

// memDelta is the Go runtime's allocation and GC work over one pass.
type memDelta struct {
	allocMB, gcCycles, gcPauseS float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: float64(after.NumGC - before.NumGC),
		gcPauseS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
	}
}

// passLayers derives one traced pass's layer numbers.
func passLayers(harness string, t *tracer, wall float64) map[string]float64 {
	s := t.reg.Snapshot(nil)
	h := func(name string) float64 { return histSum(s, name) }
	c := func(name string) float64 { return float64(s.Counter(name)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"netgen.pass_s":                  t.spans["netgen.pass_s"],
		"network.mobility_s":             h("world_phase_mobility_seconds"),
		"network.radio_decay_s":          h("world_phase_radio_decay_seconds"),
		"network.topology_s":             h("world_phase_topology_rebuild_seconds"),
		"network.links_changed_per_step": ratio(c("world_links_added_total")+c("world_links_removed_total"), c("world_steps_total")),
		"network.record_s":               t.spans["network.record_s"],
		"mapping.learn_s":                h("mapping_phase_learn_seconds"),
		"mapping.meet_s":                 h("mapping_phase_meet_seconds"),
		"mapping.decide_s":               h("mapping_phase_decide_seconds"),
		"mapping.move_s":                 h("mapping_phase_move_seconds"),
		"mapping.measure_s":              h("mapping_phase_measure_seconds"),
		"mapping.meetings":               c("mapping_meetings_total"),
		"mapping.topo_records_merged":    c("mapping_topo_records_merged_total"),
		"routing.decide_s":               h("routing_phase_decide_seconds"),
		"routing.meet_s":                 h("routing_phase_meet_seconds") - t.spans["trace.emit_in_meet_s"],
		"routing.move_s":                 h("routing_phase_move_seconds"),
		"routing.deposit_s":              h("routing_phase_deposit_seconds") - t.spans["trace.emit_in_deposit_s"],
		"routing.measure_s":              h("routing_phase_measure_seconds"),
		"routing.moves":                  c("routing_moves_total"),
		"routing.meetings":               c("routing_meetings_total"),
		"routing.deposits":               c("routing_deposits_total"),
		"routing.route_adoptions":        c("routing_route_adoptions_total"),
		"routing.route_evictions":        c("routing_route_evictions_total"),
		"routing.resync_frac":            ratio(c("routing_measure_resyncs_total"), c("routing_steps_total")),
		"faults.injected":                c("faults_injected_total"),
		"faults.routes_purged":           c("faults_routes_purged_total"),
		"faults.stranded_agents":         c("faults_stranded_agents_total"),
		"trace.emit_s":                   t.spans["trace.emit_s"],
		"trace.events":                   c("trace_events_total"),
		"trace.bytes_written":            c("trace_bytes_written"),
		"trace.bytes_per_event":          ratio(c("trace_bytes_written"), c("trace_events_total")),
	}
	m["network.step_s"] = m["network.mobility_s"] + m["network.radio_decay_s"] + m["network.topology_s"]
	m["mapping.merged_per_meeting"] = ratio(m["mapping.topo_records_merged"], m["mapping.meetings"])
	residual := wall
	for _, name := range timedLayers {
		residual -= m[name]
	}
	m[harness+".unattributed_s"] = residual
	return m
}

// readLayers derives one traced read-back's numbers.
func readLayers(t *tracer) map[string]float64 {
	s := t.reg.Snapshot(nil)
	return map[string]float64{
		"replay.load_s":        t.spans["replay.load_s"],
		"replay.verify_s":      t.spans["replay.verify_s"],
		"replay.summary_s":     t.spans["replay.summary_s"],
		"replay.reconstruct_s": t.spans["replay.reconstruct_s"],
		"replay.blocks_read":   float64(s.Counter("replay_blocks_read")),
	}
}

// layerMetrics averages the traced sections into the per-layer metrics.
func layerMetrics(harness string, setups, passes []*tracer, walls []float64, reads []*tracer, mem []memDelta) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	var gen []float64
	for _, t := range setups {
		gen = append(gen, t.spans["netgen.generate_s"])
	}
	out["netgen.generate_s"] = median(gen)
	// Means are taken as sum/len, so a count that repeats exactly reads
	// back exactly.
	mean := func(ms []map[string]float64) {
		sums := map[string]float64{}
		for _, m := range ms {
			for k, v := range m {
				sums[k] += v
			}
		}
		for k, v := range sums {
			out[k] = v / float64(len(ms))
		}
	}
	var pm, rm, mm []map[string]float64
	for i, t := range passes {
		pm = append(pm, passLayers(harness, t, walls[i]))
	}
	for _, t := range reads {
		rm = append(rm, readLayers(t))
	}
	for _, d := range mem {
		mm = append(mm, map[string]float64{"go.alloc_mb": d.allocMB, "go.gc_cycles": d.gcCycles, "go.gc_pause_s": d.gcPauseS})
	}
	mean(pm)
	mean(rm)
	mean(mm)
	return out
}

// printLayerTable prints the traced pass broken down by layer (self
// seconds and share of the traced pass's wall time), the counts, and the
// layers behind set-up and read-back time.
func printLayerTable(w io.Writer, workload string, lm map[string]float64, wall, setup, replay float64) {
	fmt.Fprintf(w, "# set-up %.4f s: netgen.generate_s %.4f s (%.1f%%)\n", setup, lm["netgen.generate_s"], 100*lm["netgen.generate_s"]/setup)
	readSpans := []string{"replay.load_s", "replay.verify_s", "replay.summary_s", "replay.reconstruct_s"}
	traced := 0.0
	for _, name := range readSpans {
		traced += lm[name]
	}
	fmt.Fprintf(w, "# read-back %.4f s untraced, %.4f s traced:", replay, traced)
	for _, name := range readSpans {
		if lm[name] != 0 {
			fmt.Fprintf(w, " %s %.4f s (%.1f%%)", name, lm[name], 100*lm[name]/traced)
		}
	}
	fmt.Fprintf(w, "\n# per-layer self time per traced pass (wall_s %.4f s)\n", wall)
	fmt.Fprintf(w, "# %-32s %12s %8s\n", "layer", "self s", "share")
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for _, name := range append(append([]string(nil), timedLayers...), "mapping.unattributed_s", "routing.unattributed_s") {
		if lm[name] != 0 {
			rows = append(rows, row{name, lm[name]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	for _, r := range rows {
		label := r.name
		if r.name == "mapping.unattributed_s" || r.name == "routing.unattributed_s" {
			label += " (residual)"
		}
		fmt.Fprintf(w, "# %-32s %12.4f %7.1f%%\n", label, r.v, 100*r.v/wall)
	}
	for _, m := range perLayer {
		if m.unit != "s" && lm[m.name] != 0 {
			fmt.Fprintf(w, "# %-32s %12.4g %s\n", m.name, lm[m.name], m.unit)
		}
	}
	if want, ok := largestLayer[workload]; ok && len(rows) > 0 {
		got := rows[0].name
		if workload == "log-roundtrip" {
			// Writing plus reading back the logs, against every other layer.
			got = "trace.emit_s"
			for _, r := range rows {
				if r.name != got && r.v > lm[got]+replay {
					got = r.name
					break
				}
			}
		}
		verdict := "agrees"
		if got != want {
			verdict = "DISAGREES"
		}
		fmt.Fprintf(w, "# prediction: largest layer %s; observed %s: %s\n", want, got, verdict)
	}
	for _, p := range predictions {
		for _, on := range p.on {
			if on == workload {
				fmt.Fprintf(w, "# prediction: %s should move %s here\n", p.layer, p.moves)
			}
		}
		for _, on := range p.flatOn {
			if on == workload {
				fmt.Fprintf(w, "# prediction: %s should stay flat here\n", p.layer)
			}
		}
	}
}
