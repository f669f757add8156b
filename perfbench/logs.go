package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/replay"
	"repro/internal/trace"
)

// writeLog records one run into a binary log at path with its sidecar
// index, as the CLIs' -binlog flag does. With a tracer the LogWriter is
// instrumented and wrapped so the time inside it is measured.
func writeLog(path string, meta replay.RunMeta, tr *tracer, run func(trace.Tracer) error) error {
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		return err
	}
	lw, err := trace.CreateLog(path, hdr)
	if err != nil {
		return err
	}
	lw.Instrument(tr.registry())
	var sink trace.Tracer = lw
	var ts *timedSink
	if tr != nil {
		ts = &timedSink{sink: lw}
		sink = ts
	}
	err = run(sink)
	t0 := time.Now()
	if cerr := lw.Close(); err == nil {
		err = cerr
	}
	if ts != nil {
		ts.total += time.Since(t0)
		tr.addSink(ts)
	}
	return err
}

// logSize is the on-disk size of a log plus its sidecar index.
func logSize(path string) (int64, error) {
	var total int64
	for _, p := range []string{path, path + ".idx"} {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

type logRead struct {
	sum  replay.Summary
	hash uint64
}

// readLog opens a log and runs every reader on it: VerifyLog against a
// fresh simulation, SummarizeLog, and ReconstructAt at a spread of steps.
func readLog(path string, tr *tracer, steps int) (logRead, error) {
	t0 := time.Now()
	lr, closeLog, err := trace.OpenLog(path)
	tr.span("replay.load_s", t0)
	if err != nil {
		return logRead{}, err
	}
	defer closeLog()
	lr.Instrument(tr.registry())
	meta, err := replay.MetaFromHeader(lr.Header())
	if err != nil {
		return logRead{}, err
	}

	t0 = time.Now()
	checked, err := replay.VerifyLog(lr, meta)
	tr.span("replay.verify_s", t0)
	if err != nil {
		return logRead{}, err
	}
	if checked == 0 {
		return logRead{}, fmt.Errorf("%s: VerifyLog checked no anchors", path)
	}

	t0 = time.Now()
	sum, err := replay.SummarizeLog(lr)
	tr.span("replay.summary_s", t0)
	if err != nil {
		return logRead{}, err
	}

	d := newDigest()
	t0 = time.Now()
	for _, s := range []int{0, steps / 4, steps / 2, 3 * steps / 4, steps - 1} {
		snap, err := replay.ReconstructAt(lr, s)
		if err != nil {
			return logRead{}, err
		}
		if len(snap.Positions) != meta.Spec.N {
			return logRead{}, fmt.Errorf("%s: reconstructed %d nodes at step %d, want %d", path, len(snap.Positions), s, meta.Spec.N)
		}
		for _, p := range snap.Positions {
			d.floats(p.X, p.Y)
		}
		d.floats(snap.Ranges...)
		d.ints(len(snap.Dead), len(snap.DownGateways))
	}
	tr.span("replay.reconstruct_s", t0)

	d.ints(checked, sum.Events, sum.Steps, sum.FinishStep)
	kinds := make([]string, 0, len(sum.ByKind))
	for k := range sum.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		d.h.Write([]byte(k))
		d.ints(sum.ByKind[trace.Kind(k)])
	}
	for _, name := range sum.MeasureNames {
		d.h.Write([]byte(name))
		d.floats(sum.MeasuresByName[name]...)
	}
	return logRead{sum, d.sum()}, nil
}
