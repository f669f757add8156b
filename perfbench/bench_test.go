package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// toy runs one workload at toy size and returns its result as printed.
func toy(t *testing.T, workload string, traced, corrupt bool) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 1, seconds: 0.01, trace: traced,
		scale: toyScale, tmpRoot: t.TempDir(), corrupt: corrupt,
	}
	res, err := bench(cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: printing the result: %v", workload, err)
	}
	var printed result
	if err := json.Unmarshal(b, &printed); err != nil {
		t.Fatal(err)
	}
	return printed
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Fatalf("benchmark workloads %s, BENCHMARK.json lists %s", got, want)
	}
}

// Every workload, at toy size, prints exactly the metrics BENCHMARK.json
// names for its mode, each with its unit, and passes its output checks.
func TestToyWorkloadsPrintEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := toy(t, w.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// A wrong output hash must count as a failed operation.
func TestCorruptHashRaisesFailedFrac(t *testing.T) {
	for _, w := range workloadNames() {
		res := toy(t, w, true, true)
		if res.Correct || res.Failed == 0 || res.Metrics["failed_frac"].Value <= 0 {
			t.Errorf("%s: corrupted hash gave correct=%v failed=%d failed_frac=%v",
				w, res.Correct, res.Failed, res.Metrics["failed_frac"].Value)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seconds", "1"},
		{"--workload", "mapping-coop", "--trace", "2"},
		{"--workload", "mapping-coop", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}
