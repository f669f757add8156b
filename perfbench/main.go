// Command perfbench is the repository benchmark. It drives the simulation
// packages on three workloads (see workloads.go), checks their outputs, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run sets its workload up several times (set-up time is the median),
// then repeats the workload's fixed unit of work — a pass — until the
// requested seconds have elapsed, reading the workload's persisted output
// back after every pass. wall_s is the pass time with each of its units (a
// setting, or a single run) at its median across passes (see
// sumOfMedians); replay_s is the median read-back. Every simulation runs
// in this one process with Workers=1, RunWorkers=1 and ShardWorkers=1.
//
// With --trace 0 the end-to-end metrics are printed; they come from
// uninstrumented passes. With --trace 1 the passes alternate between
// uninstrumented and instrumented ones (a metrics.Registry on every
// scenario plus benchmark-side spans around public calls), and the
// per-layer metrics are printed together with a per-layer table.
//
// The workloads, their metrics and the predictions of which layer should
// move which metric are in workloads.go and layers.go; BENCHMARK.json at
// the repository root lists the same names. The self-test runs every
// workload at toy size: cd perfbench && go test ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale
	// tmpRoot holds the run's temporary directory (logs, trajectory and
	// snapshot files); it is removed before the run returns.
	tmpRoot string
	// corrupt flips one bit of every pass hash, so the self-test can
	// prove that a wrong output is counted as failed.
	corrupt bool
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "how long the repeated passes run")
	traceFlag := fl.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fl.Usage()
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		scale:    fullScale,
		tmpRoot:  ".bench_build",
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// ledger counts operations — simulation runs and read-backs — and the
// ones that failed: an error, a panic, or a failed output check.
type ledger struct {
	attempted, failed int
	firstErr          error
}

func (l *ledger) add(ops int, err error) {
	l.attempted += ops
	if err != nil {
		l.failed += ops
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// guarded runs f, turning a panic into an error.
func guarded(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// bench runs one workload and returns the printed result.
func bench(cfg config, out io.Writer) (result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v scale=%s %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale.name, stamp())
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, "perfbench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	env := env{seed: cfg.seed, scale: cfg.scale, dir: tmp}

	// Set-up: at least three times and for a twentieth of the run (at most
	// half a second), median reported. Only the last instance is kept.
	var inst instance
	var setupTimes []float64
	var setupTraces []*tracer
	for len(setupTimes) < 3 || (sum(setupTimes) < min(0.5, cfg.seconds/20) && len(setupTimes) < 25) {
		tr := cfg.newTracer()
		t0 := time.Now()
		next, err := wl.setup(env, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, since(t0))
		setupTraces = append(setupTraces, tr)
		inst = next
	}

	var led ledger
	pin, pinned := pins[pinKey{cfg.workload, cfg.scale.name, cfg.seed}]
	// check compares a hash against the run's first one (every pass and
	// read-back must agree, traced or not) and against the pinned value.
	check := func(what string, got uint64, first *uint64, want uint64) error {
		if *first == 0 {
			*first = got
		}
		if got != *first {
			return fmt.Errorf("%s hash %016x differs from this run's first %016x", what, got, *first)
		}
		if pinned && got != want {
			return fmt.Errorf("%s hash %016x differs from the pinned %016x", what, got, want)
		}
		return nil
	}

	// Passes, each followed by read-backs of the persisted output, so both
	// kinds of sample spread over the whole run. Untraced runs time every
	// pass; traced runs alternate an untraced pass with a traced one, and
	// trace the read-backs after a traced pass.
	var walls, tracedWalls, reads []float64
	var units [][]float64 // per successful untraced pass: each unit's time
	var passTraces, readTraces []*tracer
	var mem []memDelta
	var firstPass, firstRead uint64
	var persisted persisted
	persistOK := false
	agentSteps := int64(0)
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(walls) >= 3 && (!cfg.trace || len(tracedWalls) >= 2)
		if enough && since(start) >= cfg.seconds {
			break
		}
		traced := cfg.trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		if err := inst.prepare(); err != nil {
			return result{}, fmt.Errorf("preparing pass %d: %w", i, err)
		}
		// Every timed section starts from a collected heap, so garbage
		// from earlier sections does not land in its timing.
		runtime.GC()
		var ms0 runtime.MemStats
		if cfg.trace && !traced {
			runtime.ReadMemStats(&ms0)
		}
		var po passOut
		t0 := time.Now()
		err := guarded(func() error { return inst.pass(tr, &po) })
		wall := since(t0)
		if cfg.trace && !traced {
			mem = append(mem, memSince(&ms0))
		}
		if err == nil {
			if cfg.corrupt {
				po.hash ^= 1
			}
			err = check("pass", po.hash, &firstPass, pin.pass)
		}
		led.add(max(po.runs, 1), err)
		if traced {
			tracedWalls = append(tracedWalls, wall)
			passTraces = append(passTraces, tr)
		} else {
			walls = append(walls, wall)
			if err == nil {
				units = append(units, po.units)
				agentSteps = po.agentSteps
			}
		}
		fmt.Fprintf(out, "# pass %d traced=%v wall_s=%.4f units=%d hash=%016x err=%v\n", i, traced, wall, len(po.units), po.hash, err)

		if i == 0 {
			err := guarded(func() (err error) { persisted, err = inst.persist(); return err })
			if err != nil {
				led.add(1, fmt.Errorf("persisting output: %w", err))
			}
			persistOK = err == nil
		}
		if !persistOK {
			continue
		}
		// A batch of read-backs: at least one, and more for up to a
		// fortieth of the run (at most 0.6 s). Each read-back is one
		// sample and starts from a collected heap, so the collections
		// inside it are its own; replay_s is the median of every sample
		// of the run, which a slow spell of the host moves less than it
		// moves a batch mean.
		batch, n, batchRead := time.Now(), 0, 0.0
		for n == 0 || (since(batch) < min(0.6, cfg.seconds/40) && n < 100) {
			n++
			var rtr *tracer
			if traced {
				rtr = newTracer()
				readTraces = append(readTraces, rtr)
			}
			runtime.GC()
			var ro readOut
			t0 := time.Now()
			err := guarded(func() (err error) { ro, err = inst.readBack(rtr); return err })
			read := since(t0)
			batchRead += read
			if !traced {
				reads = append(reads, read)
			}
			if err == nil {
				err = check("read-back", ro.hash, &firstRead, pin.read)
			}
			led.add(persisted.files, err)
		}
		fmt.Fprintf(out, "# read-back batch of %d: %.5f s each\n", n, batchRead/float64(n))
	}
	if led.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", led.firstErr)
	}
	fmt.Fprintf(out, "# hashes pass=%016x read=%016x pinned=%v\n", firstPass, firstRead, pinned)

	res := result{
		Correct:   led.failed == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics:   map[string]metricValue{},
	}
	if !cfg.trace {
		wall := sumOfMedians(units)
		if wall == 0 { // every pass failed
			wall = median(walls)
		}
		put := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(name)} }
		put("setup_s", median(setupTimes))
		put("wall_s", wall)
		put("agent_steps_per_s", float64(agentSteps)/wall)
		put("replay_s", median(reads))
		put("log_bytes_per_step", persisted.bytesPerStep())
		return res, nil
	}
	lm := layerMetrics(wl.harness, setupTraces, passTraces, tracedWalls, readTraces, mem)
	lm["bench.trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1
	lm["failed_frac"] = float64(led.failed) / float64(led.attempted)
	lm["go.peak_rss_mb"] = peakRSSMB()
	printLayerTable(out, cfg.workload, lm, median(tracedWalls), median(setupTimes), median(reads))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{lm[m.name], m.unit}
	}
	return res, nil
}

func (cfg config) newTracer() *tracer {
	if !cfg.trace {
		return nil
	}
	return newTracer()
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// sumOfMedians sums, over the units of a pass, each unit's median time
// across passes: a slow spell then spoils the samples of the units it
// overlaps rather than a whole pass.
func sumOfMedians(units [][]float64) float64 {
	if len(units) == 0 {
		return 0
	}
	total := 0.0
	for u := range units[0] {
		var xs []float64
		for _, p := range units {
			xs = append(xs, p[u])
		}
		total += median(xs)
	}
	return total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs,
// falling back to the Go runtime's total obtained memory elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stamp identifies the host and the code, so results from different hosts
// or trees are never read as a trend.
func stamp() string {
	return fmt.Sprintf("cpus=%d gomaxprocs=%d go=%s commit=%s src=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest())
}

// commit resolves .git/HEAD when the tree is a git checkout; benchmark
// checkouts usually are not, which sourceDigest covers.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortHash(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return shortHash(strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return shortHash(h)
			}
		}
	}
	return "unknown"
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, skipping dot-directories (build output, VCS metadata).
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
