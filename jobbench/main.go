// Command jobbench measures gpuscale sweep jobs end to end: a client
// submits a job over HTTP, polls it to a terminal state and fetches
// the matrix, one job at a time. It drives the same public seams
// gpuscaled wires (serve.Service.Handler, serve.Config.RunSweep into
// dist.Coordinator.Run, dist.Worker, dist.Standby) in one process,
// checks every fetched matrix byte for byte, and with -trace 1 splits
// the jobs into per-layer costs timed from outside the program.
//
// Usage (from the repository root):
//
//	bash jobbench/run.sh --workload ha-round --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are a human-readable report. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Seeds documented in README.md: DefaultSeed is pinned (its matrix
// digests live in pinned.go), HeldOutSeed is the seed no tuning used.
const (
	DefaultSeed = 42
	HeldOutSeed = 1729
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	stateRoot string
	size      string
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == fillerArg {
		os.Exit(runHelper())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(o.seconds))
	defer cancel()
	res, err := bench(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "jobbench:", err)
		return 1
	}
	writeReport(stdout, res)
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintln(stderr, "jobbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runDeadline bounds a whole run: the measured window plus room for
// set-up, the warm-up job, the reference sweep and the traced replays.
func runDeadline(seconds float64) time.Duration {
	return time.Duration(seconds*float64(time.Second)) + 150*time.Second
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var (
		o     options
		trace int
	)
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "job seed (noise stream); the default is pinned, see README.md")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&o.stateRoot, "state-root", ".bench_build", "directory the per-run state directories are created in")
	fs.StringVar(&o.size, "size", "full", "input size: full (the workload's job) or tiny (self-test grid)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return o, usageErr(fs, "-trace must be 0 or 1")
	case findWorkload(o.workload) == nil:
		return o, usageErr(fs, fmt.Sprintf("unknown workload %q", o.workload))
	case o.seconds <= 0:
		return o, usageErr(fs, "-seconds must be positive")
	case o.size != "full" && o.size != "tiny":
		return o, usageErr(fs, "-size must be full or tiny")
	}
	return o, nil
}

func usageErr(fs *flag.FlagSet, msg string) error {
	fmt.Fprintln(fs.Output(), "jobbench:", msg)
	fs.Usage()
	return errors.New(msg)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples and na feed the human report only: na marks a metric
	// whose layer does no work on this workload (its JSON value is 0).
	samples int
	na      bool
}

// result is one run's outcome.
type result struct {
	opts      options
	env       envRecord
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
	breakdown []breakdownRow
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output() output {
	return output{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// writeReport prints the human-readable lines that precede the JSON.
func writeReport(w io.Writer, r *result) {
	mode := "end-to-end (tracing off)"
	if r.opts.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "jobbench %s: workload=%s seed=%d seconds=%g size=%s\n",
		mode, r.opts.workload, r.opts.seed, r.opts.seconds, r.opts.size)
	fmt.Fprintf(w, "env: %s\n", r.env)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		switch {
		case m.na:
			fmt.Fprintf(w, "  %-34s %14s %-8s\n", n, "n/a", m.Unit)
		case m.samples > 0:
			fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.samples)
		default:
			fmt.Fprintf(w, "  %-34s %14.6g %-8s\n", n, m.Value, m.Unit)
		}
	}
	if len(r.breakdown) > 0 {
		fmt.Fprintln(w, "median job breakdown (traced jobs):")
		for _, b := range r.breakdown {
			fmt.Fprintf(w, "  %-34s %10.2f ms  %5.1f%%\n", b.name, b.ms, b.share*100)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "jobs attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct)
}
