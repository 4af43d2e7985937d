package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// partialMatrix sweeps the test kernels under a fault storm with no
// retries, guaranteeing a mix of ok and failed cells.
func partialMatrix(t *testing.T, space hw.Space) *Matrix {
	t.Helper()
	in := fault.Injector{ErrorRate: 0.3, Seed: 21}
	m, rep, err := RunContext(context.Background(), testKernels(), space,
		Options{Row: in.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.OK == 0 {
		t.Fatalf("fault storm produced no mix: %s", rep.Summary())
	}
	return m
}

// TestCSVRoundTripWithStatus writes a partial matrix — including its
// Status plane — and asserts a deep-equal read-back.
func TestCSVRoundTripWithStatus(t *testing.T) {
	space := testSpace(t)
	m := partialMatrix(t, space)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Kernels, m.Kernels) {
		t.Fatalf("kernels differ: %v vs %v", got.Kernels, m.Kernels)
	}
	if !reflect.DeepEqual(got.Throughput, m.Throughput) {
		t.Fatal("throughput differs after round trip")
	}
	if !reflect.DeepEqual(got.TimeNS, m.TimeNS) {
		t.Fatal("times differ after round trip")
	}
	if !reflect.DeepEqual(got.Bound, m.Bound) {
		t.Fatal("bounds differ after round trip")
	}
	if !reflect.DeepEqual(got.Status, m.Status) {
		t.Fatal("status plane differs after round trip")
	}
}

// TestReadCSVLegacySevenColumns keeps archives written before the
// status column readable: every cell comes back StatusOK.
func TestReadCSVLegacySevenColumns(t *testing.T) {
	space := testSpace(t)
	m, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the status column to emulate an old archive.
	var legacy bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		legacy.WriteString(line[:strings.LastIndex(line, ",")] + "\n")
	}
	got, err := ReadCSV(&legacy, space)
	if err != nil {
		t.Fatalf("legacy CSV rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Throughput, m.Throughput) {
		t.Fatal("legacy throughput differs")
	}
	for r := range got.Kernels {
		if !got.RowComplete(r) {
			t.Fatalf("legacy row %d not all StatusOK", r)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	space := testSpace(t)
	const hdr = "kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound,status\n"
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"wrong header", "x,y\n1,2\n"},
		{"bad cu", hdr + "k,notanint,200,150,1,1,compute,ok\n"},
		{"off-grid", hdr + "k,5,200,150,1,1,compute,ok\n"},
		{"bad bound", hdr + "k,4,200,150,1,1,teapot,ok\n"},
		{"bad status", hdr + "k,4,200,150,1,1,compute,maybe\n"},
		{"incomplete grid", hdr + "k,4,200,150,1,1,compute,ok\n"},
		{"no rows", hdr},
		{"short record", hdr + "k,4,200\n"},
		{"bad throughput", hdr + "k,4,200,150,fast,1,compute,ok\n"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.input), space)
		if err == nil {
			t.Errorf("case %q accepted", c.name)
			continue
		}
		if err.Error() == "" {
			t.Errorf("case %q produced an empty error", c.name)
		}
	}
}

// TestReadCSVPartialToleratesHoles: the lenient reader marks missing
// cells failed instead of erroring, and an only-header file is fine.
func TestReadCSVPartialToleratesHoles(t *testing.T) {
	space := testSpace(t)
	const hdr = "kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound,status\n"
	input := hdr + "p.a,4,200,150,1.5,100,compute,ok\n"
	m, err := ReadCSVPartial(strings.NewReader(input), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Kernels) != 1 || m.Kernels[0] != "p.a" {
		t.Fatalf("kernels = %v", m.Kernels)
	}
	okCells := 0
	for c := range m.Status[0] {
		if m.Status[0][c] == StatusOK {
			okCells++
		}
	}
	if okCells != 1 {
		t.Fatalf("ok cells = %d, want exactly the one present row", okCells)
	}
	if m.RowComplete(0) {
		t.Fatal("hole-ridden row reported complete")
	}
	empty, err := ReadCSVPartial(strings.NewReader(hdr), space)
	if err != nil {
		t.Fatalf("header-only file rejected by partial reader: %v", err)
	}
	if len(empty.Kernels) != 0 {
		t.Fatalf("header-only file produced kernels %v", empty.Kernels)
	}
	// Strict mode still rejects both.
	if _, err := ReadCSV(strings.NewReader(input), space); err == nil {
		t.Error("strict reader accepted an incomplete grid")
	}
}

func TestJournalCheckpointAndRecovery(t *testing.T) {
	space := testSpace(t)
	path := filepath.Join(t.TempDir(), "journal.csv")
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if j.Prior() != nil {
		t.Fatal("fresh journal has a prior matrix")
	}
	// Sweep with the journal wired into OnRow, kernel b down.
	opts := Options{
		Row: gcn.FuncRow(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			if k.Name == "p.b" {
				return gcn.Result{}, errors.New("b is down")
			}
			return gcn.Simulate(k, cfg)
		}),
		OnRow: func(m *Matrix, r int) {
			if err := j.AppendRow(m, r); err != nil {
				t.Errorf("AppendRow: %v", err)
			}
		},
	}
	if _, _, err := RunContext(context.Background(), testKernels(), space, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.VerifyComplete([]string{"p.a", "p.b", "p.c"}); err == nil {
		t.Fatal("journal with a down kernel verified complete")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the two healthy rows must be recovered, b's absent.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	prior := j2.Prior()
	if prior == nil {
		t.Fatal("reopened journal lost its rows")
	}
	if prior.Row("p.a") < 0 || prior.Row("p.c") < 0 {
		t.Fatalf("recovered kernels %v, want p.a and p.c", prior.Kernels)
	}
	if prior.Row("p.b") >= 0 {
		t.Fatal("failed kernel p.b leaked into the journal")
	}

	// Resume against the prior, journaling the recomputed row.
	opts2 := Options{
		OnRow: func(m *Matrix, r int) {
			if err := j2.AppendRow(m, r); err != nil {
				t.Errorf("AppendRow: %v", err)
			}
		},
	}
	m, rep, err := Resume(context.Background(), testKernels(), space, opts2, prior)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2*space.Size() {
		t.Fatalf("resume skipped %d cells, want %d", rep.Skipped, 2*space.Size())
	}
	if err := j2.VerifyComplete(m.Kernels); err != nil {
		t.Fatalf("journal incomplete after resume: %v", err)
	}

	// The finished journal recovers cleanly (no salvage) and equals a
	// clean sweep.
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if s := j3.Salvage(); s != nil {
		t.Fatalf("clean journal reported salvage: %+v", s)
	}
	archived := j3.Prior()
	if archived == nil {
		t.Fatal("finished journal recovered no rows")
	}
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range clean.Kernels {
		ar, cr := archived.Row(name), clean.Row(name)
		if ar < 0 {
			t.Fatalf("kernel %s missing from archive", name)
		}
		if !reflect.DeepEqual(archived.Throughput[ar], clean.Throughput[cr]) {
			t.Fatalf("archived row %s differs from clean sweep", name)
		}
	}
}

func TestOpenJournalRejectsForeignFile(t *testing.T) {
	space := testSpace(t)
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("do not overwrite me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, space); err == nil {
		t.Fatal("journal opened over a non-CSV file")
	}
	// The file must be untouched.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "do not overwrite me\n" {
		t.Fatal("foreign file was modified")
	}
}
