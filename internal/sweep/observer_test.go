package sweep

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
)

// faultyOpts returns sweep options wrapping the round engine in a
// deterministic fault storm with enough retries to recover fully.
func faultyOpts(extra func(*Options)) Options {
	in := fault.Injector{ErrorRate: 0.2, Seed: 5}
	o := Options{Workers: 4, Row: in.WrapRow(gcn.RoundRow), Retries: 8}
	if extra != nil {
		extra(&o)
	}
	return o
}

func TestTelemetryCountersMatchReport(t *testing.T) {
	space := testSpace(t)
	tel := NewTelemetry(nil, nil)
	opts := faultyOpts(func(o *Options) { o.Observer = tel })
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	reg := tel.Registry()
	counters := map[string]uint64{
		"attempts": reg.Counter(MetricAttempts, "").Value(),
		"retries":  reg.Counter(MetricRetries, "").Value(),
		"ok":       reg.Counter(MetricCellsDone, "", obs.L("status", "ok")).Value(),
		"failed":   reg.Counter(MetricCellsDone, "", obs.L("status", "failed")).Value(),
		"canceled": reg.Counter(MetricCellsDone, "", obs.L("status", "canceled")).Value(),
		"rows":     reg.Counter(MetricRowsDone, "").Value(),
	}
	want := map[string]uint64{
		"attempts": uint64(rep.Attempts),
		"retries":  uint64(rep.Retries),
		"ok":       uint64(rep.OK),
		"failed":   uint64(rep.Failed),
		"canceled": uint64(rep.Canceled),
		"rows":     uint64(rep.Kernels),
	}
	if !reflect.DeepEqual(counters, want) {
		t.Fatalf("registry counters %v do not match report %v", counters, want)
	}
	if rep.Retries == 0 {
		t.Fatal("fault storm consumed no retries; test proves nothing")
	}
	if got := reg.Gauge(MetricCells, "").Value(); got != float64(rep.Cells) {
		t.Fatalf("cells gauge = %g, want %d", got, rep.Cells)
	}
	if n := reg.Histogram(MetricCellLatency, "", nil).Count(); n != uint64(rep.OK+rep.Failed+rep.Canceled) {
		t.Fatalf("latency histogram has %d observations, want %d", n, rep.OK+rep.Failed+rep.Canceled)
	}
}

func TestObservedSweepByteIdenticalMatrix(t *testing.T) {
	space := testSpace(t)
	// Noise + faults: the adversarial case for observer interference
	// with RNG streams and retry decisions.
	mk := func(o Observer) *Matrix {
		opts := faultyOpts(func(op *Options) {
			op.NoiseStdDev = 0.05
			op.Seed = 11
			op.Observer = o
		})
		m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, rep)
		return m
	}
	var tw bytes.Buffer
	plain := mk(nil)
	nop := mk(NopObserver{})
	tel := mk(func() *Telemetry {
		tl := NewTelemetry(nil, obs.NewTraceWriter(&tw))
		tl.EmitProgress(discardWriter{}, 0)
		return tl
	}())

	for name, m := range map[string]*Matrix{"NopObserver": nop, "Telemetry": tel} {
		var a, b bytes.Buffer
		if err := plain.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s-observed matrix differs from unobserved run", name)
		}
	}
}

// discardWriter is a throwaway writer; keeps the test free of an io
// import collision with the package under test.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestTelemetryTraceEvents(t *testing.T) {
	space := testSpace(t)
	var buf bytes.Buffer
	tel := NewTelemetry(nil, obs.NewTraceWriter(&buf))
	opts := faultyOpts(func(o *Options) { o.Observer = tel })
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("trace is not parseable JSONL: %v", err)
	}
	byName := map[string]int{}
	retriesInTrace := 0
	for _, e := range evs {
		byName[e.Name]++
		if e.Name == "attempt" {
			if n, ok := e.Args["attempt"].(float64); ok && n > 1 {
				retriesInTrace++
			}
			if e.Args["kernel"] == nil || e.Args["cus"] == nil {
				t.Fatalf("attempt span missing kernel/config keys: %v", e.Args)
			}
		}
	}
	if byName["cell"] != rep.Cells {
		t.Fatalf("trace has %d cell spans, want %d", byName["cell"], rep.Cells)
	}
	if byName["attempt"] != rep.Attempts {
		t.Fatalf("trace has %d attempt spans, want %d", byName["attempt"], rep.Attempts)
	}
	if retriesInTrace != rep.Retries {
		t.Fatalf("trace shows %d retries, report says %d", retriesInTrace, rep.Retries)
	}
	if byName["row"] != rep.Kernels {
		t.Fatalf("trace has %d row spans, want %d", byName["row"], rep.Kernels)
	}
	if byName["sweep"] != 1 || byName["sweep.start"] != 1 {
		t.Fatalf("trace sweep lifecycle spans = %v", byName)
	}
}

func TestTelemetrySkippedCellsOnResume(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	prior, _, err := RunContext(context.Background(), ks, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(nil, nil)
	_, rep, err := Resume(context.Background(), ks, space, Options{Observer: tel}, prior)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != rep.Cells {
		t.Fatalf("full prior should skip everything: %s", rep.Summary())
	}
	got := tel.Registry().Counter(MetricCellsDone, "", obs.L("status", "skipped")).Value()
	if got != uint64(rep.Skipped) {
		t.Fatalf("skipped counter = %d, want %d", got, rep.Skipped)
	}
	s := tel.Progress().Snapshot()
	if s.Done != uint64(rep.Cells) || s.Total != uint64(rep.Cells) {
		t.Fatalf("progress after all-skipped resume = %+v", s)
	}
}

// TestJournalResumeWithObserverUnderCancellation drives the full
// production wiring — journal OnRow, Telemetry observer with tracing
// and progress, fault injection — through a mid-sweep cancellation,
// then resumes. Run under -race (make check does) this doubles as the
// concurrency proof for the observer delivery path.
func TestJournalResumeWithObserverUnderCancellation(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	path := filepath.Join(t.TempDir(), "journal.csv")

	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tel := NewTelemetry(nil, obs.NewTraceWriter(&buf))
	tel.EmitProgress(discardWriter{}, 0)

	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	slowSim := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		// Cancel mid-sweep, from inside a worker, once the first row
		// has had time to complete.
		if calls.Add(1) == int64(space.Size()+3) {
			cancel()
		}
		return gcn.Simulate(k, cfg)
	}
	opts := Options{
		Workers: 1, // one row at a time => first row journals before cancel
		Row:     gcn.FuncRow(slowSim),
		OnRow: func(m *Matrix, r int) {
			start := time.Now()
			err := j.AppendRow(m, r)
			tel.JournalAppend(m.Kernels[r], time.Since(start), err)
			if err != nil {
				t.Errorf("journal append: %v", err)
			}
		},
		Observer: tel,
	}
	_, rep, err := RunContext(ctx, ks, space, opts)
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	checkAccounting(t, rep)
	if rep.Canceled == 0 {
		t.Fatalf("cancellation landed after the sweep finished: %s", rep.Summary())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Registry().Counter(MetricJournalAppends, "").Value(); got != uint64(rep.Kernels) {
		t.Fatalf("journal appends = %d, want one per row (%d)", got, rep.Kernels)
	}
	if _, err := obs.ReadEvents(&buf); err != nil {
		t.Fatalf("trace corrupted by cancellation: %v", err)
	}

	// Resume with a fresh journal + observer must complete and reuse
	// the journaled rows.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tel2 := NewTelemetry(nil, nil)
	opts2 := Options{
		Workers:  4,
		OnRow:    func(m *Matrix, r int) { _ = j2.AppendRow(m, r) },
		Observer: tel2,
	}
	m2, rep2, err := Resume(context.Background(), ks, space, opts2, j2.Prior())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep2)
	if rep2.Skipped == 0 {
		t.Fatalf("resume reused nothing despite journaled rows: %s", rep2.Summary())
	}
	for r := range m2.Kernels {
		if !m2.RowComplete(r) {
			t.Fatalf("resumed sweep left row %d incomplete", r)
		}
	}
	if err := j2.VerifyComplete(m2.Kernels); err != nil {
		t.Fatal(err)
	}
}

// TestNopObserverOverhead compares the nil-observer hot path against a
// no-op observer; the dispatch overhead must stay under 5%. It is a
// benchmark in test clothing, so it only runs when `make bench-obs`
// (or the env var) asks for it — wall-clock assertions are too noisy
// for every `go test`.
func TestNopObserverOverhead(t *testing.T) {
	if os.Getenv("GPUSCALE_BENCH_OBS") == "" {
		t.Skip("set GPUSCALE_BENCH_OBS=1 (make bench-obs) to run the overhead gate")
	}
	ks := testKernels()
	space := hw.StudySpace()
	measure := func(o Observer) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, _, err := RunContext(context.Background(), ks, space, Options{Observer: o}); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	base := measure(nil)
	nop := measure(NopObserver{})
	ratio := nop / base
	t.Logf("nil observer %.2fms, NopObserver %.2fms, ratio %.3f", base/1e6, nop/1e6, ratio)
	if ratio > 1.05 {
		t.Errorf("no-op observer adds %.1f%% to the sweep hot path, budget is 5%%", 100*(ratio-1))
	}
}

// TestTracedSweepOverhead gates the full distributed-tracing path: a
// Telemetry observer with a live trace writer, span context and flight
// recorder must stay within 10% of the nil-observer sweep, measured on
// the detailed engine — the cheapest engine with a realistic per-cell
// cost (~tens of microseconds; the round engine's closed-form cell is
// cheaper than a clock read, which no tracer could shadow). This is
// what keeps leaf events on the KV fast path, span-mint-free — if
// someone adds a crypto/rand read or a reflective marshal per cell,
// this test is the alarm. Gated like TestNopObserverOverhead:
// wall-clock ratios are too noisy for every `go test`.
func TestTracedSweepOverhead(t *testing.T) {
	if os.Getenv("GPUSCALE_BENCH_OBS") == "" {
		t.Skip("set GPUSCALE_BENCH_OBS=1 (make bench-obs) to run the overhead gate")
	}
	ks := testKernels()
	space := hw.StudySpace()
	measure := func(mk func() Observer) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					var o Observer
					if mk != nil {
						o = mk()
					}
					opts := Options{Engine: Detailed, Observer: o}
					if _, _, err := RunContext(context.Background(), ks, space, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	base := measure(nil)
	fr, err := obs.OpenFlightRecorder(filepath.Join(t.TempDir(), "flight.ring"),
		obs.DefaultFlightSlots, obs.DefaultFlightSlotSize)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	traced := measure(func() Observer {
		tel := NewTelemetry(nil, obs.NewTraceWriter(io.Discard))
		tel.SetSpanContext(obs.NewSpanContext())
		tel.SetFlight(fr)
		return tel
	})
	ratio := traced / base
	t.Logf("nil observer %.2fms, traced %.2fms, ratio %.3f", base/1e6, traced/1e6, ratio)
	if ratio > 1.10 {
		t.Errorf("tracing adds %.1f%% to the sweep hot path, budget is 10%%", 100*(ratio-1))
	}
}

func TestTelemetryProgressLine(t *testing.T) {
	space := testSpace(t)
	var sb strings.Builder
	tel := NewTelemetry(nil, nil)
	tel.EmitProgress(&sb, 0)
	_, rep, err := RunContext(context.Background(), testKernels(), space, Options{Observer: tel})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cells/s") {
		t.Fatalf("no progress lines emitted:\n%s", out)
	}
	final := out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:]
	if !strings.Contains(out, "progress: ") {
		t.Fatalf("missing progress prefix: %q", final)
	}
	s := tel.Progress().Snapshot()
	if s.Done != uint64(rep.Cells) {
		t.Fatalf("final progress done = %d, want %d", s.Done, rep.Cells)
	}
}
