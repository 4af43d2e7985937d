package sweep

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// The batched config-axis path must be invisible in the data: a sweep
// whose rows evaluate through one EvalBatch call has to produce
// matrices and accounting byte-identical to the same prepared rows
// evaluated one config at a time through Eval, with or without fault
// injection.

// scalarRows is the per-config reference: the row engine's prepared
// rows with EvalBatch looping the scalar Eval (FuncRow supplies the
// per-cell panic isolation).
type scalarRows struct{ re gcn.RowEngine }

func (e scalarRows) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := e.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return gcn.FuncRow(func(_ *kernel.Kernel, cfg hw.Config) (gcn.Result, error) { return pr.Eval(cfg) }).PrepareRow(k)
}

func TestBatchPathMatchesDisabledBatchAllEngines(t *testing.T) {
	space := testSpace(t)
	for _, e := range []Engine{Round, Wave, Pipeline, Detailed} {
		ks := testKernels()
		if e == Wave || e == Pipeline || e == Detailed {
			ks = lightKernels()
		}
		if e == Pipeline {
			ks = ks[:2]
		}
		t.Run(e.String(), func(t *testing.T) {
			batch, brep, err := RunContext(context.Background(), ks, space, Options{Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			scalar, srep, err := RunContext(context.Background(), ks, space,
				Options{Row: scalarRows{e.Row()}})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := csvBytes(t, batch), csvBytes(t, scalar); !bytes.Equal(a, b) {
				t.Fatalf("engine %s: batched matrix differs from per-cell prepared matrix", e)
			}
			if brep.OK != srep.OK || brep.Attempts != srep.Attempts {
				t.Fatalf("accounting diverged: batch %+v vs scalar %+v", brep, srep)
			}
		})
	}
}

// TestBatchPathFaultEquivalence storms the batch path with every
// engine-side fault kind — including injected panics mid-batch — and
// requires byte-identical matrices and identical retry accounting
// against both the scalar prepared reference and the one-shot
// per-cell engine (gcn.FuncRow over Round.Func). This is what proves
// the fault overlay advances the same per-(cell, attempt) decision
// stream the scalar Eval roll does.
func TestBatchPathFaultEquivalence(t *testing.T) {
	space := testSpace(t)
	model := fault.Injector{ErrorRate: 0.15, CorruptRate: 0.1, PanicRate: 0.04, LatencyRate: 0.02,
		Latency: 1, Seed: 11}
	base := Options{Retries: 2}

	batchOpts := base
	batchOpts.Row = model.WrapRow(Round.Row())
	batch, batchRep, err := RunContext(context.Background(), testKernels(), space, batchOpts)
	if err != nil {
		t.Fatal(err)
	}

	scalarOpts := base
	scalarOpts.Row = scalarRows{model.WrapRow(Round.Row())}
	scalar, scalarRep, err := RunContext(context.Background(), testKernels(), space, scalarOpts)
	if err != nil {
		t.Fatal(err)
	}

	perOpts := base
	perOpts.Row = model.WrapRow(gcn.FuncRow(Round.Func()))
	perCell, perRep, err := RunContext(context.Background(), testKernels(), space, perOpts)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := csvBytes(t, batch), csvBytes(t, scalar); !bytes.Equal(a, b) {
		t.Fatal("fault-injected batch matrix differs from per-cell prepared matrix")
	}
	if a, b := csvBytes(t, batch), csvBytes(t, perCell); !bytes.Equal(a, b) {
		t.Fatal("fault-injected batch matrix differs from legacy per-cell matrix")
	}
	for _, pair := range []struct {
		name string
		rep  *RunReport
	}{{"scalar", scalarRep}, {"percell", perRep}} {
		if batchRep.OK != pair.rep.OK || batchRep.Failed != pair.rep.Failed ||
			batchRep.Attempts != pair.rep.Attempts || batchRep.Retries != pair.rep.Retries {
			t.Fatalf("fault accounting diverged from %s: batch %+v vs %+v", pair.name, batchRep, pair.rep)
		}
	}
	if batchRep.Failed == 0 || batchRep.Retries == 0 {
		t.Fatalf("fault storm too quiet to prove anything: %+v", batchRep)
	}
}

// TestBatchInjectedPanicIsFinal pins the panic mapping: a panic
// isolated inside a batch (surfaced as gcn.ErrBatchPanic) must settle
// its cell exactly like a per-cell panic — StatusFailed, one attempt,
// an error matching ErrEnginePanic — without disturbing neighbors.
func TestBatchInjectedPanicIsFinal(t *testing.T) {
	space := testSpace(t)
	model := fault.Injector{PanicRate: 1, Seed: 1}
	opts := Options{Retries: 3, Row: model.WrapRow(Round.Row())}
	ks := testKernels()[:1]
	m, rep, err := RunContext(context.Background(), ks, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Cells {
		t.Fatalf("PanicRate 1: %d/%d cells failed", rep.Failed, rep.Cells)
	}
	// Panics are final: no retry budget may be spent on them.
	if rep.Attempts != rep.Cells || rep.Retries != 0 {
		t.Fatalf("panicked cells consumed retries: %+v", rep)
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, ErrEnginePanic) {
			t.Fatalf("batched panic surfaced as %v, want ErrEnginePanic", f.Err)
		}
	}
	for c := range m.Status[0] {
		if m.Status[0][c] != StatusFailed {
			t.Fatalf("cell %d status %v, want failed", c, m.Status[0][c])
		}
	}
}

// rowLevelBatchFail wraps a row engine so every EvalBatch fails at the
// row level.
type rowLevelBatchFail struct{ re gcn.RowEngine }

type rowLevelBatchFailRow struct{ gcn.PreparedRow }

var errRowBatch = errors.New("batchpath_test: row-level batch failure")

func (e rowLevelBatchFail) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := e.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return rowLevelBatchFailRow{pr}, nil
}

func (rowLevelBatchFailRow) EvalBatch([]hw.Config, []gcn.Result, []error) error {
	return errRowBatch
}

// TestRowLevelBatchErrorFailsEveryCell: a row-level batch error is
// every cell's first-attempt error — there is no per-cell fallback —
// and each retry, a batch of one config, fails the same way.
func TestRowLevelBatchErrorFailsEveryCell(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	m, rep, err := RunContext(context.Background(), ks, space,
		Options{Row: rowLevelBatchFail{Round.Row()}, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != rep.Cells || rep.Attempts != 3*rep.Cells {
		t.Fatalf("want every cell failed after 3 attempts: %s", rep.Summary())
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, errRowBatch) {
			t.Fatalf("failure %v does not carry the row-level batch error", f.Err)
		}
	}
	for r := range m.Kernels {
		if m.RowComplete(r) {
			t.Fatalf("row %d complete despite failing batches", r)
		}
	}
}
