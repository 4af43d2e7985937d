package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"gpuscale/internal/obs"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

// A run times setupReps deployments and reports their median as
// setup_s. The first setupFirst come before the warm-up job (the last of
// them serves the jobs), setupPerJob throwaway ones follow each
// measured job, and the rest come after the measured window. Slow
// deployments come in bursts; spreading them through the run keeps one
// burst from deciding the median.
const (
	setupReps   = 61
	setupFirst  = 21
	setupPerJob = 3
)

// pollEvery is the client's status-poll interval.
const pollEvery = 2 * time.Millisecond

// jobRecord is one measured job.
type jobRecord struct {
	id     string
	traced bool
	// state is the terminal state the client observed; ok is the
	// output check's verdict and cellsFailed its per-cell count.
	state       serve.State
	ok          bool
	cellsFailed int
	csvBytes    int

	start, submitted, completed, fetched time.Time
	// lastRow is when the service journaled the job's last row.
	lastRow    time.Time
	queueWait  time.Duration
	cpu        time.Duration
	allocBytes uint64
	rssPeakKB  int64

	// fetches are the job's timed matrix GETs, its own fetch first.
	fetches []fetchSample
}

// fetchSample is one timed matrix GET and the median format part of the
// speed probes run right after it.
type fetchSample struct {
	seconds, format float64
}

func (j *jobRecord) jobS() float64      { return j.fetched.Sub(j.start).Seconds() }
func (j *jobRecord) completeS() float64 { return j.completed.Sub(j.start).Seconds() }
func (j *jobRecord) fetchS() float64    { return j.fetched.Sub(j.completed).Seconds() }

// bench runs one workload for one seed and returns its result.
func bench(ctx context.Context, o options, logw io.Writer) (*result, error) {
	h, err := startHelper()
	if err != nil {
		return nil, err
	}
	defer h.stop()
	wl := findWorkload(o.workload)
	in, err := makeInputs(wl, o.size, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := reference(ctx, wl, in, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.stateRoot, "jobbench-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	res := &result{opts: o, env: recordEnv(runDir), metrics: map[string]metric{}}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Set-up fsyncs its ledger and state files; flush what the build and
	// the previous run left dirty first, so they do not wait behind it.
	syscall.Sync()
	s := &setups{wl: wl, dir: runDir}
	var d *deployment
	for i := 0; i < setupFirst; i++ {
		if d != nil {
			d.close()
		}
		if d, err = s.deploy(tr); err != nil {
			return nil, err
		}
	}
	return measure(ctx, o, wl, in, ref, d, tr, res, s, h, logw)
}

// Each run probes the machine's speed (see speedProbe) probesAround
// times before the warm-up job and after the measured window, and
// probesPerFetch times right after each timed matrix GET.
const (
	probesAround   = 10
	probesPerFetch = 2
)

// setups deploys a workload and keeps each deployment's timings.
type setups struct {
	wl    *workload
	dir   string
	total []float64 // seconds
	syncs []float64 // standby first sync, ms
}

// deploy constructs one deployment under a fresh directory and records
// what it cost.
func (s *setups) deploy(tr *tracer) (*deployment, error) {
	d, st, err := deploy(s.wl, filepath.Join(s.dir, fmt.Sprintf("deploy-%d", len(s.total))), tr)
	if err != nil {
		return nil, fmt.Errorf("deploying %s: %w", s.wl.name, err)
	}
	s.total = append(s.total, st.total.Seconds())
	if s.wl.standby {
		s.syncs = append(s.syncs, float64(st.standbySync)/float64(time.Millisecond))
	}
	return d, nil
}

// throwaway deploys n untraced deployments and closes each at once.
func (s *setups) throwaway(n int) error {
	for i := 0; i < n; i++ {
		d, err := s.deploy(nil)
		if err != nil {
			return err
		}
		d.close()
	}
	return nil
}

// measure runs the warm-up job, then closed-loop jobs for the measured
// window, checks them, and derives the metrics. It owns d. Only the
// jobs are on the clock: the output check and the throwaway
// deployments between jobs are not.
func measure(ctx context.Context, o options, wl *workload, in *inputs, ref *refResult, d *deployment,
	tr *tracer, res *result, s *setups, h *helper, logw io.Writer) (*result, error) {
	closed := false
	closeDeployment := func() {
		if !closed {
			closed = true
			d.close()
		}
	}
	defer closeDeployment()

	var probes []probeSample
	probe := func(n int) (probeSample, error) {
		ps, err := h.probe(n)
		probes = append(probes, ps...)
		return medianProbe(ps), err
	}
	if _, err := probe(probesAround); err != nil {
		return nil, err
	}
	var body, again bytes.Buffer
	if _, err := runJob(ctx, d, in, nil, &body); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	var (
		jobs  []*jobRecord
		chk   = newChecker(ref, in, o.seed)
		until = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	)
	// Traced runs trace three jobs in four and leave the fourth
	// untraced, so the tracing overhead is measured in the same run, on
	// the same deployment.
	for i := 0; len(jobs) == 0 || time.Now().Before(until); i++ {
		var jt *tracer
		if tr != nil && i%4 != 3 {
			jt = tr
		}
		j, err := runJob(ctx, d, in, jt, &body)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		ps, err := probe(probesPerFetch)
		if err != nil {
			return nil, err
		}
		j.fetches = append(j.fetches, fetchSample{j.fetchS(), ps.format})
		chk.check(j, body.Bytes())
		// The job's further fetches are off its clock: they add fetch_s
		// samples, each timed right before its own speed probes.
		for k := 1; k < wl.fetches; k++ {
			t0 := time.Now()
			if err := call(ctx, d.client, http.MethodGet, d.base+"/v1/jobs/"+j.id+"/matrix", nil, http.StatusOK, &again); err != nil {
				return nil, fmt.Errorf("job %d: fetch %d: %w", i, k+1, err)
			}
			sec := time.Since(t0).Seconds()
			chk.checkRefetch(j, body.Bytes(), again.Bytes())
			again.Reset()
			ps, err := probe(probesPerFetch)
			if err != nil {
				return nil, err
			}
			j.fetches = append(j.fetches, fetchSample{sec, ps.format})
		}
		jobs = append(jobs, j)
		if err := s.throwaway(setupPerJob); err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "jobbench: %s %s traced=%v job=%.3fs complete=%.3fs fetch=%.3fs cpu=%.3fs probe=%.4f+%.4fs ok=%v\n",
			wl.name, j.id, j.traced, j.jobS(), j.completeS(), j.fetchS(), j.cpu.Seconds(),
			ps.format, ps.chase, j.ok)
	}
	chk.checkDeployment(ctx, d, jobs)
	closeDeployment()
	if err := s.throwaway(setupReps - len(s.total)); err != nil {
		return nil, err
	}
	if _, err := probe(probesAround); err != nil {
		return nil, err
	}

	res.attempted = len(jobs)
	for _, j := range jobs {
		if !j.ok {
			res.failed++
		}
	}
	res.correct = res.failed == 0
	res.notes = append(chk.notes, fmt.Sprintf("reference matrix sha256 %s (%d bytes)", ref.digest, len(ref.csv)))
	if !o.trace {
		endToEnd(res, jobs, in, s.total, probes)
		return res, nil
	}
	rp, err := replay(ctx, wl, in, ref, o.seed, o.stateRoot, tr)
	if err != nil {
		return nil, fmt.Errorf("replaying layers: %w", err)
	}
	if err := perLayer(res, wl, in, jobs, tr, rp, s.syncs); err != nil {
		return nil, err
	}
	if err := tr.writeFile(filepath.Join(o.stateRoot, "jobbench-"+wl.name+".trace")); err != nil {
		fmt.Fprintln(logw, "jobbench: writing trace:", err)
	}
	return res, nil
}

// runJob submits the job, polls it to a terminal state and fetches
// the matrix into body. tr, when non-nil, traces the job.
func runJob(ctx context.Context, d *deployment, in *inputs, tr *tracer, body *bytes.Buffer) (*jobRecord, error) {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	j := &jobRecord{traced: tr != nil}
	// Write back what the benchmark itself left dirty (throwaway
	// deployments and their removal) off the job's clock, so the job's
	// first fsyncs do not commit it.
	syscall.Sync()
	qw0, qn0 := queueWait(d.reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if tr != nil {
		tr.beginJob()
	}

	cpu0 := cpuTime()
	j.start = time.Now()
	// The job first collects the previous job's garbage, on its own
	// clocks, so the collection is paid for. Every job then starts from
	// the same heap, and the collector's cycles fall at the same points
	// of each job's work, rather than by chance in one job's short fetch
	// and not in the next one's.
	runtime.GC()
	resetPeakRSS()
	var st serve.JobStatus
	if err := call(ctx, d.client, http.MethodPost, d.base+"/v1/jobs", in.spec, http.StatusAccepted, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	j.submitted = time.Now()
	j.id = st.ID
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %s stuck in state %s: %w", j.id, st.State, ctx.Err())
		case <-time.After(pollEvery):
		}
		if err := call(ctx, d.client, http.MethodGet, d.base+"/v1/jobs/"+j.id, nil, http.StatusOK, &st); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
	}
	j.completed = time.Now()
	j.state = st.State
	body.Reset()
	if err := call(ctx, d.client, http.MethodGet, d.base+"/v1/jobs/"+j.id+"/matrix", nil, http.StatusOK, body); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	j.fetched = time.Now()

	j.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	j.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	j.rssPeakKB = peakRSSKB()
	qw1, qn1 := queueWait(d.reg)
	if qn1 > qn0 {
		j.queueWait = time.Duration((qw1 - qw0) / (qn1 - qn0) * float64(time.Second))
	}
	j.csvBytes = body.Len()
	if fi, err := os.Stat(filepath.Join(d.dir, j.id+".journal")); err == nil {
		j.lastRow = fi.ModTime()
	}
	if tr != nil {
		tr.endJob(j)
	}
	return j, nil
}

// call does one JSON (or, for a *bytes.Buffer out, raw) request and
// insists on the wanted status.
func call(ctx context.Context, c *http.Client, method, url string, in []byte, want int, out any) error {
	var rd io.Reader
	if in != nil {
		rd = bytes.NewReader(in)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// queueWait reads the service's serve_queue_wait_seconds histogram:
// its sum in seconds and its count.
func queueWait(reg *obs.Registry) (sum, count float64) {
	for _, s := range reg.Snapshot() {
		if s.Name == "serve_queue_wait_seconds" {
			return s.Sum, s.Value
		}
	}
	return 0, 0
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark, so
// each job's peak is its own. Best-effort: without it, the peak is the
// process's since start.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best-effort, see above
}

// peakRSSKB reads the resident-set high-water mark (VmHWM) in KiB.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb int64
			fmt.Sscanf(string(bytes.TrimSpace(v)), "%d", &kb)
			return kb
		}
	}
	return 0
}

// refResult is the single-node reference for the output check.
type refResult struct {
	matrix *sweep.Matrix
	csv    []byte
	digest string
	runS   float64
}
