package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/trace"
)

// scale sizes every workload; it is the same on every commit.
type scale struct {
	name string

	// mapping-coop: Fig 5 populations, and the finishing steps each team
	// and population accumulates per pass.
	mapPops       []int
	mapStepBudget int
	// mapLogAgents is the super-conscientious team whose run's first
	// mapLogSteps steps are logged.
	mapLogAgents int

	// routing-paper: Fig 8 populations, Fig 11 history sizes, runs per
	// setting (more than one, so RunManyCached replays its recording).
	fig8Pops   []int
	fig11Hist  []int
	routeRuns  int
	routeSteps int

	// log-roundtrip: the logged Fig 11 runs (oldest-node, communicating).
	logAgents  int
	logHistory int
	logSteps   int
	logPresets []string
}

var fullScale = scale{
	name:          "full",
	mapPops:       []int{2, 10, 40},
	mapStepBudget: 3000,
	mapLogAgents:  10,
	fig8Pops:      []int{10, 25, 50, 100, 200},
	fig11Hist:     []int{8, 16, 32},
	routeRuns:     3,
	routeSteps:    300,
	logAgents:     100,
	logHistory:    32,
	logSteps:      300,
	logPresets:    []string{"churn", "gwfail", "partition"},
}

// toyScale keeps every code path of fullScale at a size the self-test can
// afford.
var toyScale = scale{
	name:          "toy",
	mapPops:       []int{2},
	mapStepBudget: 1,
	mapLogAgents:  4,
	fig8Pops:      []int{10},
	fig11Hist:     []int{8},
	routeRuns:     2,
	routeSteps:    40,
	logAgents:     10,
	logHistory:    8,
	logSteps:      40,
	logPresets:    []string{"churn", "gwfail", "partition"},
}

// mapMaxSteps bounds a mapping run, as the figure harness does.
const mapMaxSteps = 200000

// env is what a workload's set-up receives: the seed its inputs come from,
// the scale, and a private directory for its files.
type env struct {
	seed  uint64
	scale scale
	dir   string
}

// workload is one benchmark workload. harness names the package whose run
// loop owns the pass's unattributed time.
type workload struct {
	harness string
	setup   func(env, *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// prepare builds the inputs the next pass consumes, outside timing.
	prepare() error
	// pass runs the timed unit of work, counting its runs in out as they
	// start; tr is nil when untraced.
	pass(tr *tracer, out *passOut) error
	// persist writes the output that readBack reads; it is called once,
	// after the first pass.
	persist() (persisted, error)
	// readBack reads the persisted output back and checks it.
	readBack(tr *tracer) (readOut, error)
}

type passOut struct {
	runs       int
	hash       uint64
	agentSteps int64
	// units holds the time of each of the pass's units — a setting, or a
	// single run — in pass order.
	units []float64
}

// unit records the time of one unit of the pass, started at t0.
func (o *passOut) unit(t0 time.Time) { o.units = append(o.units, since(t0)) }

type readOut struct{ hash uint64 }

// persisted describes the files a workload writes: how many (each read
// back is one operation), their bytes, and the simulated steps they hold.
type persisted struct {
	files int
	bytes int64
	steps int
}

func (p persisted) bytesPerStep() float64 {
	if p.steps == 0 {
		return 0
	}
	return float64(p.bytes) / float64(p.steps)
}

var workloads = map[string]workload{
	"mapping-coop":  {"mapping", setupMappingCoop},
	"routing-paper": {"routing", setupRoutingPaper},
	"log-roundtrip": {"routing", setupLogRoundtrip},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// seedFor derives a per-setting seed from the setting's label the way
// internal/experiments does, so routing-paper's runs are the first runs of
// the paper figures at the same seed.
func seedFor(root uint64, label string) uint64 {
	return rng.New(root).Named(label).Uint64()
}

// generate is netgen.Generate inside the named span.
func generate(spec netgen.Spec, seed uint64, tr *tracer, span string) (*network.World, error) {
	t0 := time.Now()
	w, err := netgen.Generate(spec, seed)
	tr.span(span, t0)
	return w, err
}

// sequential pins every scenario to one goroutine per process.
const sequential = 1

// ---------------------------------------------------------------------------
// mapping-coop: Fig 5 on the canonical 300-node mapping network.

type mappingCoop struct {
	env
	world       *network.World
	tracedWorld *network.World // a clone, so registries never leak into untraced passes

	logPath string
	logRes  mapping.Result
}

// mapWorldSeed fixes the canonical mapping network: the paper runs every
// mapping experiment on one network, and netgen's retries for a strongly
// connected layout make generation cost vary 40-fold between world seeds
// (3 to 160 ms), which set-up and VerifyLog times would then measure
// instead of the code. The run seed still drives placement and agents.
const mapWorldSeed = 1

// mapLogSteps is the length of the logged mapping run's prefix: a fixed
// length keeps the read-back's work independent of when the map completes.
const mapLogSteps = 300

func setupMappingCoop(e env, tr *tracer) (instance, error) {
	w, err := generate(netgen.Mapping300(), mapWorldSeed, tr, "netgen.generate_s")
	if err != nil {
		return nil, err
	}
	return &mappingCoop{env: e, world: w}, nil
}

var mappingTeams = []struct {
	label string
	kind  core.PolicyKind
}{
	{"con", core.PolicyConscientious},
	{"sup", core.PolicySuperConscientious},
}

func (m *mappingCoop) prepare() error { return nil }

// pass runs every team and population of Fig 5. A mapping run lasts until
// the map is complete, so a fixed run count would make the pass's work
// depend on the seed; instead each setting adds runs until their finishing
// steps reach mapStepBudget, which keeps the work nearly seed-independent
// while staying deterministic for a given seed.
func (m *mappingCoop) pass(tr *tracer, out *passOut) error {
	w := m.world
	if tr != nil {
		if m.tracedWorld == nil {
			clone, err := m.world.Snapshot().World()
			if err != nil {
				return err
			}
			m.tracedWorld = clone
		}
		w = m.tracedWorld
	}
	d := newDigest()
	for _, pop := range m.scale.mapPops {
		for _, team := range mappingTeams {
			sc := mapping.Scenario{
				Agents: pop, Kind: team.kind, Cooperate: true, MaxSteps: mapMaxSteps,
				Workers: sequential, RunWorkers: sequential, ShardWorkers: sequential,
				Metrics: tr.registry(),
			}
			label := fmt.Sprintf("fig5/%s/%d", team.label, pop)
			base := seedFor(m.seed, label)
			for r, steps := 0, 0; steps < m.scale.mapStepBudget; r++ {
				out.runs++
				t0 := time.Now()
				agg, err := mapping.RunMany(func(int) (*network.World, error) { return w, nil },
					sc, 1, rng.DeriveSeed(base, uint64(r)))
				// Each run is its own unit: the largest setting holds most
				// of the pass, and per-run medians keep a slow spell of the
				// host to the runs it overlaps.
				out.unit(t0)
				if err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				if agg.Completed != 1 {
					return fmt.Errorf("%s: run %d did not finish within %d steps", label, r, mapMaxSteps)
				}
				if err := unitInterval(label, agg.AvgCurve, agg.AvgMinCurve); err != nil {
					return err
				}
				finish := agg.FinishTimes[0]
				d.ints(finish)
				d.floats(agg.AvgCurve...)
				d.floats(agg.AvgMinCurve...)
				d.value(agg.Overhead)
				steps += finish
				out.agentSteps += int64(pop) * int64(finish)
			}
		}
	}
	out.hash = d.sum()
	return nil
}

// persist logs the first mapLogSteps steps of a cooperating
// super-conscientious run, as `cmd/mapping -binlog` does.
func (m *mappingCoop) persist() (persisted, error) {
	seed := seedFor(m.seed, "perfbench/mapping-log")
	meta := replay.RunMeta{Scenario: "mapping", Spec: netgen.Mapping300(), WorldSeed: mapWorldSeed, Seed: seed, Steps: mapLogSteps}
	sc := mapping.Scenario{
		Agents: m.scale.mapLogAgents, Kind: core.PolicySuperConscientious, Cooperate: true, MaxSteps: mapLogSteps,
		Workers: sequential, RunWorkers: sequential, ShardWorkers: sequential,
	}
	m.logPath = filepath.Join(m.dir, "mapping.alog")
	err := writeLog(m.logPath, meta, nil, func(tracer trace.Tracer) (err error) {
		sc.Tracer = tracer
		m.logRes, err = mapping.Run(m.world, sc, seed)
		return err
	})
	if err != nil {
		return persisted{}, err
	}
	size, err := logSize(m.logPath)
	return persisted{files: 1, bytes: size, steps: len(m.logRes.Curve)}, err
}

func (m *mappingCoop) readBack(tr *tracer) (readOut, error) {
	lr, err := readLog(m.logPath, tr, len(m.logRes.Curve))
	if err != nil {
		return readOut{}, err
	}
	if err := sameSeries("avg-knowledge", lr.sum.MeasuresByName["avg-knowledge"], m.logRes.Curve); err != nil {
		return readOut{}, err
	}
	if err := sameSeries("min-knowledge", lr.sum.MeasuresByName["min-knowledge"], m.logRes.MinCurve); err != nil {
		return readOut{}, err
	}
	return readOut{lr.hash}, nil
}

// ---------------------------------------------------------------------------
// routing-paper: Figs 8 and 11 on the canonical 250-node MANET, through
// RunManyCached as the figure harness runs them.

type routingPaper struct {
	env
	world *network.World // recorded by persist

	trajPath string
	final    []byte // the live world's snapshot after the recording
}

func setupRoutingPaper(e env, tr *tracer) (instance, error) {
	w, err := generate(netgen.Routing250(), e.seed, tr, "netgen.generate_s")
	if err != nil {
		return nil, err
	}
	return &routingPaper{env: e, world: w}, nil
}

type routeSetting struct {
	label string
	sc    routing.Scenario
}

func (r *routingPaper) settings() []routeSetting {
	var out []routeSetting
	for _, pop := range r.scale.fig8Pops {
		out = append(out,
			routeSetting{fmt.Sprintf("fig8/old/%d", pop), routing.Scenario{Agents: pop, Kind: core.PolicyOldestNode}},
			routeSetting{fmt.Sprintf("fig8/rnd/%d", pop), routing.Scenario{Agents: pop, Kind: core.PolicyRandom}})
	}
	for _, h := range r.scale.fig11Hist {
		out = append(out,
			routeSetting{fmt.Sprintf("fig11/off/%d", h), routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, HistorySize: h}},
			routeSetting{fmt.Sprintf("fig11/on/%d", h), routing.Scenario{Agents: 100, Kind: core.PolicyOldestNode, HistorySize: h, Communicate: true}})
	}
	return out
}

func (r *routingPaper) prepare() error { return nil }

func (r *routingPaper) pass(tr *tracer, out *passOut) error {
	d := newDigest()
	build := func() (*network.World, error) {
		w, err := generate(netgen.Routing250(), r.seed, tr, "netgen.pass_s")
		tr.recordStart()
		return w, err
	}
	for _, s := range r.settings() {
		sc := s.sc
		sc.Steps = r.scale.routeSteps
		sc.Workers, sc.RunWorkers, sc.ShardWorkers = sequential, sequential, sequential
		sc.Metrics = tr.registry()
		if tr != nil {
			sc.Observer = func(int, *network.World, *routing.Tables) { tr.recordEnd() }
		}
		out.runs += r.scale.routeRuns
		t0 := time.Now()
		agg, err := routing.RunManyCached(build, sc, r.scale.routeRuns, seedFor(r.seed, s.label))
		if err != nil {
			return fmt.Errorf("%s: %w", s.label, err)
		}
		if err := checkRouting(s.label, agg); err != nil {
			return err
		}
		out.unit(t0)
		hashRouting(d, agg)
		out.agentSteps += int64(sc.Agents) * int64(sc.Steps) * int64(r.scale.routeRuns)
	}
	out.hash = d.sum()
	return nil
}

// persist saves the trajectory RunManyCached records for every setting.
func (r *routingPaper) persist() (persisted, error) {
	traj, err := network.RecordTrajectory(r.world, r.scale.routeSteps, 0)
	if err != nil {
		return persisted{}, err
	}
	if r.final, err = json.Marshal(r.world.Snapshot()); err != nil {
		return persisted{}, err
	}
	r.trajPath = filepath.Join(r.dir, "routing.traj")
	if err := traj.Save(r.trajPath); err != nil {
		return persisted{}, err
	}
	fi, err := os.Stat(r.trajPath)
	if err != nil {
		return persisted{}, err
	}
	return persisted{files: 1, bytes: fi.Size(), steps: traj.Steps()}, nil
}

// readBack loads the trajectory, replays it to the end and compares the
// replayed world with the live one.
func (r *routingPaper) readBack(tr *tracer) (readOut, error) {
	t0 := time.Now()
	traj, err := network.LoadTrajectory(r.trajPath)
	tr.span("replay.load_s", t0)
	if err != nil {
		return readOut{}, err
	}
	t0 = time.Now()
	w, err := traj.World()
	if err != nil {
		return readOut{}, err
	}
	for i := 0; i < traj.Steps(); i++ {
		w.Step()
	}
	got, err := json.Marshal(w.Snapshot())
	tr.span("replay.verify_s", t0)
	if err != nil {
		return readOut{}, err
	}
	if string(got) != string(r.final) {
		return readOut{}, fmt.Errorf("replayed trajectory ends in a different world than the recording")
	}
	d := newDigest()
	d.ints(traj.Steps(), traj.Records(), w.Topology().M())
	d.h.Write(got)
	return readOut{d.sum()}, nil
}

// ---------------------------------------------------------------------------
// log-roundtrip: Fig 11 runs (oldest-node, communicating) recorded as
// binary logs under three fault presets, then read back.

type logRoundtrip struct {
	env
	spec    netgen.Spec
	scheds  []*faults.Schedule
	worlds  []*network.World // the inputs of the next pass
	paths   []string
	results []routing.Result // of the last pass, checked against the logs
}

func setupLogRoundtrip(e env, tr *tracer) (instance, error) {
	spec := netgen.Routing250()
	w, err := generate(spec, e.seed, tr, "netgen.generate_s")
	if err != nil {
		return nil, err
	}
	l := &logRoundtrip{env: e, spec: spec}
	for _, p := range e.scale.logPresets {
		// Compiled as replay.RunMeta.FreshWorld compiles it for VerifyLog.
		sched, err := faults.Preset(p, w.N(), w.Gateways(), e.scale.logSteps, e.seed)
		if err != nil {
			return nil, err
		}
		l.scheds = append(l.scheds, sched)
		l.paths = append(l.paths, filepath.Join(e.dir, p+".alog"))
	}
	l.worlds = make([]*network.World, len(l.paths))
	l.worlds[0] = w
	l.results = make([]routing.Result, len(l.paths))
	return l, nil
}

func (l *logRoundtrip) prepare() error {
	for i, w := range l.worlds {
		if w != nil {
			continue
		}
		w, err := netgen.Generate(l.spec, l.seed)
		if err != nil {
			return err
		}
		l.worlds[i] = w
	}
	return nil
}

func (l *logRoundtrip) pass(tr *tracer, out *passOut) error {
	d := newDigest()
	for i, preset := range l.scale.logPresets {
		w := l.worlds[i]
		l.worlds[i] = nil
		seed := seedFor(l.seed, "perfbench/log/"+preset)
		meta := replay.RunMeta{
			Scenario: "routing", Spec: l.spec, WorldSeed: l.seed, Seed: seed,
			Steps: l.scale.logSteps, FaultPreset: preset,
		}
		sc := routing.Scenario{
			Agents: l.scale.logAgents, Kind: core.PolicyOldestNode, Communicate: true,
			HistorySize: l.scale.logHistory, Steps: l.scale.logSteps, Faults: l.scheds[i],
			Workers: sequential, RunWorkers: sequential, ShardWorkers: sequential,
			Metrics: tr.registry(),
		}
		var res routing.Result
		out.runs++
		t0 := time.Now()
		err := writeLog(l.paths[i], meta, tr, func(tracer trace.Tracer) (err error) {
			sc.Tracer = tracer
			res, err = routing.Run(w, sc, seed)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", preset, err)
		}
		out.unit(t0)
		if err := unitInterval(preset, res.Connectivity, res.EndToEnd, res.Ideal); err != nil {
			return err
		}
		for t := range res.EndToEnd {
			if res.EndToEnd[t] > res.Ideal[t] {
				return fmt.Errorf("%s: end-to-end connectivity %v exceeds the physical bound %v at step %d", preset, res.EndToEnd[t], res.Ideal[t], t)
			}
		}
		size, err := logSize(l.paths[i])
		if err != nil {
			return err
		}
		l.results[i] = res
		d.floats(res.Connectivity...)
		d.floats(res.EndToEnd...)
		d.floats(res.Ideal...)
		d.floats(res.Staleness...)
		d.floats(res.Mean, res.Std, res.MeanEndToEnd, res.MeanStaleness)
		d.recovery(res.Recovery)
		d.recovery(res.RecoveryEndToEnd)
		d.ints(res.Stranded, int(size))
		d.value(res.Overhead)
		out.agentSteps += int64(sc.Agents) * int64(sc.Steps)
	}
	out.hash = d.sum()
	return nil
}

// persist has nothing to write: every pass writes the logs, which the
// read-backs after it read.
func (l *logRoundtrip) persist() (persisted, error) {
	p := persisted{files: len(l.paths), steps: len(l.paths) * l.scale.logSteps}
	for _, path := range l.paths {
		size, err := logSize(path)
		if err != nil {
			return p, err
		}
		p.bytes += size
	}
	return p, nil
}

func (l *logRoundtrip) readBack(tr *tracer) (readOut, error) {
	d := newDigest()
	for i, path := range l.paths {
		lr, err := readLog(path, tr, l.scale.logSteps)
		if err != nil {
			return readOut{}, err
		}
		res := l.results[i]
		for name, want := range map[string][]float64{"connectivity": res.Connectivity, "end-to-end": res.EndToEnd, "ideal": res.Ideal} {
			if err := sameSeries(name, lr.sum.MeasuresByName[name], want); err != nil {
				return readOut{}, fmt.Errorf("%s: %w", path, err)
			}
		}
		d.ints(int(lr.hash>>32), int(lr.hash&0xffffffff))
	}
	return readOut{d.sum()}, nil
}
