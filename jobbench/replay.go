package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// journalSamples is how many journal appends the replay times: enough
// that the p99 has ten samples beyond it.
const journalSamples = 1000

// replayed holds the layer costs measured by calling each layer's
// public functions on the job's own inputs, one layer at a time, after
// the deployment is closed.
type replayed struct {
	// gcn: sweep.Engine.Row() over every kernel, one goroutine; gcnNS
	// is the median pass, gcnRowNS the fastest pass per kernel.
	gcnRowNS       []float64 // per kernel, in job row order
	gcnNS          float64
	gcnAllocs      uint64
	kernelDecodeMS float64
	// sweep: RunContext with the job's options (the reference run),
	// and with one worker (the median of the alternated passes).
	sweepRunS  float64
	sweep1S    float64
	journalMS  []float64
	journalKB  float64
	digestMS   []float64
	csvEncodeS float64
	csvBytes   int
}

// replay measures the layers under the jobs. tr records each replay as
// a span under its own trace, next to the jobs' spans.
func replay(ctx context.Context, wl *workload, in *inputs, ref *refResult, seed int64, stateRoot string, tr *tracer) (*replayed, error) {
	rp := &replayed{sweepRunS: ref.runS}
	sc := obs.NewSpanContext()
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		tr.span(name, "replay", sc.Child(), sc.SpanID, start, time.Since(start), nil)
		return err
	}
	// The engine and the one-worker executor are timed in alternation,
	// up to three times each within a few seconds, and their medians
	// kept: the executor's own cost is their difference.
	debug.FreeOSMemory()
	var gcnNS, sweep1S []float64
	engStart := time.Now()
	for i := 0; i < 3 && (i == 0 || time.Since(engStart) < 3*time.Second); i++ {
		if err := timed("gcn", func() error { return rp.gcn(wl, in) }); err != nil {
			return nil, err
		}
		gcnNS = append(gcnNS, rp.gcnNS)
		if err := timed("sweep_1_worker", func() error {
			start := time.Now()
			_, rep, err := sweep.RunContext(ctx, in.kernels, in.space, sweep.Options{
				Workers: 1, Engine: wl.engine, NoiseStdDev: noise, Seed: seed,
			})
			if err == nil && rep.Failed > 0 {
				err = fmt.Errorf("one-worker sweep: %s", rep.Summary())
			}
			sweep1S = append(sweep1S, time.Since(start).Seconds())
			return err
		}); err != nil {
			return nil, err
		}
	}
	rp.gcnNS, rp.sweep1S = median(gcnNS), median(sweep1S)
	if err := timed("kernel_decode", func() error { return rp.decode(in) }); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "jobbench-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := timed("journal", func() error { return rp.journal(dir, in, ref.matrix) }); err != nil {
		return nil, err
	}
	if err := timed("row_digest", func() error { return rp.digest(ref.matrix) }); err != nil {
		return nil, err
	}
	if err := timed("csv_encode", func() error { return rp.csv(ref.matrix) }); err != nil {
		return nil, err
	}
	return rp, nil
}

// gcn evaluates every kernel's row through the engine's row form, the
// batch path where the row offers one, as the executor does.
func (rp *replayed) gcn(wl *workload, in *inputs) error {
	eng := wl.engine.Row()
	cfgs := in.space.Configs()
	out := make([]gcn.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	rowNS := make([]float64, len(in.kernels))
	total := 0.0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, k := range in.kernels {
		start := time.Now()
		row, err := eng.PrepareRow(k)
		if err != nil {
			return fmt.Errorf("preparing %s: %w", k.Name, err)
		}
		if b, ok := row.(gcn.BatchRow); ok {
			if err := b.EvalBatch(cfgs, out, errs); err != nil {
				return fmt.Errorf("evaluating %s: %w", k.Name, err)
			}
		} else {
			for c, cfg := range cfgs {
				out[c], errs[c] = row.Eval(cfg)
			}
		}
		rowNS[i] = float64(time.Since(start))
		total += rowNS[i]
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("evaluating %s: %w", k.Name, err)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	// Per-row times and allocations come from the fastest pass.
	if rp.gcnRowNS == nil || total < sum(rp.gcnRowNS) {
		rp.gcnRowNS = rowNS
		rp.gcnAllocs = m1.Mallocs - m0.Mallocs
	}
	rp.gcnNS = total
	return nil
}

// decode times kernel.ReadAll of the job's inline kernel list, the
// median of five.
func (rp *replayed) decode(in *inputs) error {
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := kernel.ReadAll(bytes.NewReader(in.kernelsJSON)); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	rp.kernelDecodeMS = median(ms)
	return nil
}

// journal appends the matrix's rows to fresh journals, one OpenJournal
// per pass, timing each fsynced AppendRow, until journalSamples rows.
func (rp *replayed) journal(dir string, in *inputs, m *sweep.Matrix) error {
	for pass := 0; len(rp.journalMS) < journalSamples; pass++ {
		path := filepath.Join(dir, fmt.Sprintf("pass-%d.journal", pass))
		j, err := sweep.OpenJournal(path, in.space)
		if err != nil {
			return err
		}
		for r := range m.Kernels {
			start := time.Now()
			if err := j.AppendRow(m, r); err != nil {
				j.Close()
				return err
			}
			rp.journalMS = append(rp.journalMS, float64(time.Since(start))/float64(time.Millisecond))
		}
		if err := j.Close(); err != nil {
			return err
		}
		if pass == 0 {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			rp.journalKB = float64(fi.Size()) / 1024 / float64(len(m.Kernels))
		}
		os.Remove(path)
	}
	return nil
}

// digest times sweep.RowDigest on every row.
func (rp *replayed) digest(m *sweep.Matrix) error {
	for r := range m.Kernels {
		start := time.Now()
		if _, err := sweep.RowDigest(m, r); err != nil {
			return err
		}
		rp.digestMS = append(rp.digestMS, float64(time.Since(start))/float64(time.Millisecond))
	}
	return nil
}

// csv times Matrix.WriteCSV, the median of three.
func (rp *replayed) csv(m *sweep.Matrix) error {
	var s []float64
	for i := 0; i < 3; i++ {
		var cw countWriter
		start := time.Now()
		if err := m.WriteCSV(&cw); err != nil {
			return err
		}
		s = append(s, time.Since(start).Seconds())
		rp.csvBytes = int(cw)
	}
	rp.csvEncodeS = median(s)
	return nil
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
