package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/routing"
	"repro/internal/stats"
)

// digest hashes a workload's outputs: FNV-64a over the exact bits.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(x))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(x))
		d.h.Write(d.buf[:])
	}
}

// value hashes a struct of plain counters through its printed form.
func (d *digest) value(v any) { fmt.Fprintf(d.h, "%+v;", v) }

func (d *digest) summary(s stats.Summary) {
	d.ints(s.N)
	d.floats(s.Mean, s.Std, s.Min, s.Max, s.Median, s.P25, s.P75, s.CI)
}

func (d *digest) recovery(r stats.RecoveryStats) {
	d.ints(r.Recovered, r.Censored)
	d.floats(r.MeanSteps, r.Floor)
	d.value(r.Events)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func hashRouting(d *digest, agg routing.Aggregate) {
	d.ints(agg.Runs, agg.Recovered, agg.Censored, agg.Stranded)
	d.floats(agg.Means...)
	d.summary(agg.Mean)
	d.summary(agg.EndToEnd)
	d.floats(agg.Stability, agg.MeanStaleness)
	d.floats(agg.AvgSeries...)
	d.floats(agg.AvgIdeal...)
	d.summary(agg.Reconv)
	d.summary(agg.Floor)
	d.summary(agg.ReconvE2E)
	d.summary(agg.FloorE2E)
	d.value(agg.Overhead)
}

// checkRouting holds for any seed: connectivity is a fraction.
func checkRouting(label string, agg routing.Aggregate) error {
	if len(agg.AvgSeries) == 0 {
		return fmt.Errorf("%s: empty connectivity series", label)
	}
	return unitInterval(label, agg.Means, agg.AvgSeries, agg.AvgIdeal, []float64{agg.Mean.Mean, agg.EndToEnd.Mean})
}

func unitInterval(label string, series ...[]float64) error {
	for _, xs := range series {
		for i, x := range xs {
			if !(x >= 0 && x <= 1) {
				return fmt.Errorf("%s: value %v at %d is outside [0,1]", label, x, i)
			}
		}
	}
	return nil
}

func sameSeries(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("logged %s series has %d points, the run had %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("logged %s differs from the run at step %d: %v != %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// pinKey selects the output hashes pinned for a default seed.
type pinKey struct {
	workload, scale string
	seed            uint64
}

type pin struct{ pass, read uint64 }

// pins are the output hashes of the default seed. Any other seed is checked
// by invariants alone.
var pins = map[pinKey]pin{
	{"mapping-coop", "full", 1}:  {0xe4053feb1ccef57e, 0x429d450050fb53e5},
	{"routing-paper", "full", 1}: {0x0facd0457abd323f, 0x1364f3600c35b4f4},
	{"log-roundtrip", "full", 1}: {0x37878e64ea13c886, 0xc2e3e44916817695},
	{"mapping-coop", "toy", 1}:   {0xe7fbfa14dd1129c5, 0x1dee86f8e0d9000e},
	{"routing-paper", "toy", 1}:  {0x4456a8efa8c309d5, 0xad1887ac82afaf46},
	{"log-roundtrip", "toy", 1}:  {0x544ccaf5c814f2ff, 0xa82019a6152fd504},
}
