package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"gpuscale/internal/serve"
)

// TestMain lets the test binary serve as the helper process the runs
// start, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == fillerArg {
		os.Exit(runHelper())
	}
	os.Exit(m.Run())
}

func TestQuantileRule(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, ok := quantile(xs(1), 0.5); !ok || v != 1 {
		t.Errorf("p50 of one sample = %v, %v; want 1, true", v, ok)
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("p50 of no samples reported")
	}
	// The p99 of 1000 samples is the 990th; ten lie beyond it.
	if v, ok := quantile(xs(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, true", v, ok)
	}
	if _, ok := quantile(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only nine beyond it")
	}
	if _, ok := quantile(xs(19), 0.5); !ok {
		t.Error("p50 of 19 samples withheld")
	}
}

func TestFailFractions(t *testing.T) {
	jobs := []*jobRecord{{ok: true}, {ok: false, cellsFailed: 5}, {ok: true}, {ok: false, cellsFailed: 100}}
	jf, cf := failFracs(jobs, 100)
	if jf != 0.5 || cf != 105.0/400 {
		t.Errorf("failFracs = %v, %v; want 0.5, %v", jf, cf, 105.0/400)
	}
	if jf, cf := failFracs(nil, 100); jf != 1 || cf != 1 {
		t.Errorf("no jobs attempted: failFracs = %v, %v; want total failure", jf, cf)
	}
}

// tinyChecker builds the tiny fleet-round job, its reference and a
// checker at the default seed.
func tinyChecker(t *testing.T) (*checker, *refResult) {
	t.Helper()
	wl := findWorkload("fleet-round")
	in, err := makeInputs(wl, "tiny", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(context.Background(), wl, in, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return newChecker(ref, in, DefaultSeed), ref
}

func TestFlippedByteFailsCheck(t *testing.T) {
	chk, ref := tinyChecker(t)
	good := &jobRecord{id: "good", state: serve.StateComplete}
	chk.check(good, ref.csv)
	if !good.ok {
		t.Fatalf("the reference bytes failed their own check: %v", chk.notes)
	}
	// Flip the last digit of the first data line's last field.
	csv := append([]byte(nil), ref.csv...)
	i := bytes.IndexByte(csv, '\n') + 1
	i += bytes.IndexByte(csv[i:], '\n') - 1
	csv[i] ^= 1
	bad := &jobRecord{id: "bad", state: serve.StateComplete}
	chk.check(bad, csv)
	if bad.ok || bad.cellsFailed == 0 {
		t.Fatalf("a flipped byte passed the check: ok=%v cellsFailed=%d", bad.ok, bad.cellsFailed)
	}
	refetched := &jobRecord{id: "refetched", state: serve.StateComplete}
	chk.check(refetched, ref.csv)
	chk.checkRefetch(refetched, ref.csv, csv)
	if refetched.ok || refetched.cellsFailed == 0 {
		t.Fatalf("a further fetch with a flipped byte passed the check: ok=%v cellsFailed=%d", refetched.ok, refetched.cellsFailed)
	}
	canceled := &jobRecord{id: "canceled", state: serve.StateCanceled}
	chk.check(canceled, ref.csv)
	if canceled.ok {
		t.Fatal("a canceled job passed the check")
	}
}

func TestPinMismatchFailsEveryJob(t *testing.T) {
	_, ref := tinyChecker(t)
	in := &inputs{pinKey: "test/pin"}
	pinnedDigests[in.pinKey] = strings.Repeat("0", 64)
	defer delete(pinnedDigests, in.pinKey)
	chk := newChecker(ref, in, DefaultSeed)
	j := &jobRecord{id: "j", state: serve.StateComplete}
	chk.check(j, ref.csv)
	if j.ok {
		t.Fatal("a job passed although the reference is off its pinned digest")
	}
	if held := newChecker(ref, in, HeldOutSeed); !held.pinnedOK {
		t.Fatal("the pin applied to a seed it was not taken at")
	}
}

// TestTinyWorkloads runs every workload end to end on the tiny grid,
// untraced and traced, and checks the result line.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.name, "--seed", "5", "--seconds", "0.3", "--trace", trace,
					"--size", "tiny", "--state-root", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, stdout.String())
				}
				want := endToEndMetrics
				if trace == "1" {
					want = perLayerMetrics
				}
				var got, names []string
				for n := range out.Metrics {
					got = append(got, n)
				}
				for _, m := range want {
					names = append(names, m.name)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, " ") != strings.Join(names, " ") {
					t.Fatalf("metrics = %v\nwant %v", got, names)
				}
				if trace == "1" && (out.Metrics["job_fail_frac"].Value != 0 || out.Metrics["cell_fail_frac"].Value != 0) {
					t.Fatalf("fail fractions not 0: %v", out.Metrics)
				}
			})
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
