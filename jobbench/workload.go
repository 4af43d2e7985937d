package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/serve"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
)

// noise is the measurement-noise stddev every job uses, so the seed
// changes the matrix bytes and a held-out seed is a real check.
const noise = 0.02

// workload is one fixed job shape and the deployment that runs it.
type workload struct {
	name string
	// suite restricts the job to one corpus suite; "" is the full
	// 267-kernel corpus.
	suite  string
	engine sweep.Engine
	// workers is the fleet size; 0 runs the job on the service's
	// local executor.
	workers int
	standby bool
	// fetches is how many times each measured job's matrix is fetched.
	// The first fetch ends the job; the others only add fetch_s samples,
	// more where a fetch is a smaller share of the job.
	fetches int
}

var workloads = []workload{
	{name: "node-round", engine: sweep.Round, fetches: 1},
	{name: "fleet-round", engine: sweep.Round, workers: 2, fetches: 3},
	{name: "fleet-detailed", suite: "microbench", engine: sweep.Detailed, workers: 2, fetches: 4},
	{name: "ha-round", engine: sweep.Round, workers: 2, standby: true, fetches: 3},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// inputs is a workload's job at one size: the kernels, the grid and
// the exact JSON body the client submits.
type inputs struct {
	kernels     []*kernel.Kernel
	kernelsJSON []byte
	space       hw.Space
	spec        []byte
	// pinKey names the job in pinned.go ("" when the size is not
	// pinned).
	pinKey string
}

func (in *inputs) cells() int { return len(in.kernels) * in.space.Size() }

// makeInputs builds the job for a workload. The kernels and grid are
// fixed per workload and size; the seed only moves the noise stream.
func makeInputs(wl *workload, size string, seed int64) (*inputs, error) {
	corpus := suites.Corpus()
	var ks []*kernel.Kernel
	switch {
	case size == "tiny":
		// One small suite on a 2x2x2 grid: every code path, in well
		// under a second per job.
		s := suites.FindSuite(corpus, "microbench")
		if s == nil {
			return nil, fmt.Errorf("corpus has no microbench suite")
		}
		for _, p := range s.Programs {
			for _, e := range p.Kernels {
				if len(ks) < 6 {
					ks = append(ks, e.Kernel)
				}
			}
		}
	case wl.suite != "":
		s := suites.FindSuite(corpus, wl.suite)
		if s == nil {
			return nil, fmt.Errorf("corpus has no suite %q", wl.suite)
		}
		for _, p := range s.Programs {
			for _, e := range p.Kernels {
				ks = append(ks, e.Kernel)
			}
		}
	default:
		ks = suites.AllKernels(corpus)
	}
	var kb bytes.Buffer
	if err := kernel.WriteAll(&kb, ks); err != nil {
		return nil, err
	}
	in := &inputs{kernels: ks, kernelsJSON: kb.Bytes(), space: hw.StudySpace()}
	spec := serve.JobSpec{Kernels: in.kernelsJSON, Engine: wl.engine.String(), Noise: noise, Seed: seed}
	if size == "tiny" {
		space, err := hw.NewSpace([]int{4, 44}, []float64{200, 1000}, []float64{150, 1250})
		if err != nil {
			return nil, err
		}
		in.space = space
		spec.Space = &serve.SpaceSpec{CUs: space.CUCounts, CoreMHz: space.CoreClocksMHz, MemMHz: space.MemClocksMHz}
	} else {
		in.pinKey = wl.engine.String() + "/corpus"
		if wl.suite != "" {
			in.pinKey = wl.engine.String() + "/" + wl.suite
		}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	in.spec = b
	return in, nil
}

// deployment is one constructed service: the job API, and for fleets
// the coordinator, its workers and the optional warm standby, all
// talking real HTTP over loopback.
type deployment struct {
	dir   string
	base  string
	reg   *obs.Registry
	svc   *serve.Service
	coord *dist.Coordinator
	sb    *dist.Standby
	srv   *http.Server
	// client is the job client's HTTP client.
	client     *http.Client
	transports []*http.Transport
	closers    []func() error
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	// runErr collects errors from the background loops (a worker that
	// exits, a standby that promotes); any one fails the run's check.
	errMu  sync.Mutex
	runErr []error
}

// setupTiming is what one deploy costs.
type setupTiming struct {
	total       time.Duration
	standbySync time.Duration
}

// deploy constructs a deployment under dir and waits until it is
// ready: listener up, workers polling, standby synced. tr, when
// non-nil, installs the benchmark's tracing wrappers.
func deploy(wl *workload, dir string, tr *tracer) (d *deployment, st setupTiming, err error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	d = &deployment{dir: dir, reg: obs.NewRegistry(), cancel: cancel}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	flight, err := d.openFlight(dir)
	if err != nil {
		return d, st, err
	}

	var runSweep func(context.Context, serve.SweepRequest) (*sweep.Matrix, *sweep.RunReport, error)
	var replicate func(string, []byte)
	if wl.workers > 0 {
		d.coord, err = dist.NewCoordinator(filepath.Join(dir, "dist"), dist.CoordinatorOptions{
			ID: "coordinator", DefaultTTL: 10 * time.Second, Metrics: d.reg, Flight: flight,
		})
		if err != nil {
			return d, st, err
		}
		d.closers = append(d.closers, d.coord.Close)
		if err := d.coord.StartHA(ctx); err != nil {
			return d, st, err
		}
		coord := d.coord
		runSweep = func(ctx context.Context, req serve.SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
			return coord.Run(ctx, dist.Job{
				Name: req.JobID, Kernels: req.Kernels, Space: req.Space,
				Engine: req.Engine, Seed: req.Seed, NoiseStdDev: req.Noise,
				OnRow: req.OnRow, Trace: req.Trace,
			})
		}
		if tr != nil {
			runSweep = tr.wrapRunSweep(runSweep)
		}
		replicate = coord.ReplicateServeSpec
	}
	d.svc, err = serve.New(serve.Config{
		Dir: dir, Registry: d.reg, RunSweep: runSweep, Replicate: replicate, Flight: flight,
	})
	if err != nil {
		return d, st, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, st, err
	}
	d.base = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	if d.coord != nil {
		h := tr.middleware("dist", d.coord.Handler())
		mux.Handle("/v1/dist/", h)
		mux.Handle("/v1/ha/", h)
	}
	mux.Handle("/", tr.middleware("serve", d.svc.Handler()))
	d.srv = obs.Server(mux)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at close
	}()
	d.client = &http.Client{Timeout: 60 * time.Second, Transport: tr.transport("client", d.newTransport())}

	for i := 1; i <= wl.workers; i++ {
		name := fmt.Sprintf("w%d", i)
		wdir := filepath.Join(dir, name)
		wflight, err := d.openFlight(wdir)
		if err != nil {
			return d, st, err
		}
		w, err := dist.NewWorker(dist.WorkerOptions{
			Name: name, Peers: []string{d.base}, Dir: wdir,
			Client:       &http.Client{Timeout: 30 * time.Second, Transport: tr.transport(name, d.newTransport())},
			SweepWorkers: 1, Metrics: obs.NewRegistry(), Flight: wflight,
		})
		if err != nil {
			return d, st, err
		}
		d.closers = append(d.closers, w.Close)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := w.Run(ctx); err != nil {
				d.fail(fmt.Errorf("worker %s: %w", name, err))
			}
		}()
	}

	if wl.standby {
		sdir := filepath.Join(dir, "standby")
		sflight, err := d.openFlight(sdir)
		if err != nil {
			return d, st, err
		}
		sreg := obs.NewRegistry()
		d.sb, err = dist.NewStandby(filepath.Join(sdir, "dist"), dist.StandbyOptions{
			ID: "standby", Primary: d.base,
			Client:    &http.Client{Timeout: 10 * time.Second, Transport: tr.transport("standby", d.newTransport())},
			PollEvery: 250 * time.Millisecond,
			// Never promotes: the primary stays up for the whole run.
			PromoteAfter: time.Hour,
			Metrics:      sreg,
			Coordinator:  dist.CoordinatorOptions{ID: "standby", Metrics: sreg, Flight: sflight},
		})
		if err != nil {
			return d, st, err
		}
		d.closers = append(d.closers, d.sb.Close)
		syncStart := time.Now()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			promoted, err := d.sb.Run(ctx)
			if err != nil {
				d.fail(fmt.Errorf("standby: %w", err))
			}
			if promoted != nil {
				promoted.Close()
				d.fail(fmt.Errorf("standby promoted itself while the primary was up"))
			}
		}()
		// The first snapshot adopts the primary's term (1 on a fresh
		// ledger); a fresh standby reports term 0 until then.
		deadline := time.Now().Add(10 * time.Second)
		for d.sb.Status().Term == 0 {
			if time.Now().After(deadline) {
				return d, st, fmt.Errorf("standby did not sync within 10s")
			}
			time.Sleep(100 * time.Microsecond)
		}
		st.standbySync = time.Since(syncStart)
		if tr != nil {
			tr.span("standby_sync", "dist", obs.SpanContext{TraceID: tr.setupTrace, SpanID: obs.NewSpanID()}, "", syncStart, st.standbySync, nil)
		}
	}
	st.total = time.Since(start)
	return d, st, nil
}

func (d *deployment) openFlight(dir string) (*obs.FlightRecorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fr, err := obs.OpenFlightRecorder(filepath.Join(dir, "flight.ring"), obs.DefaultFlightSlots, obs.DefaultFlightSlotSize)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, fr.Close)
	return fr, nil
}

func (d *deployment) newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	d.transports = append(d.transports, t)
	return t
}

func (d *deployment) fail(err error) {
	d.errMu.Lock()
	d.runErr = append(d.runErr, err)
	d.errMu.Unlock()
}

func (d *deployment) errs() []error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return append([]error(nil), d.runErr...)
}

// primaryCursor reads the primary's published replication cursor.
func (d *deployment) primaryCursor(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/ha/status", nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st dist.HAStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding primary status: %w", err)
	}
	return st.Cursor, nil
}

// close stops every loop, waits for it, and releases the state. Safe
// on a partly constructed deployment.
func (d *deployment) close() {
	d.cancel()
	if d.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		d.svc.Drain(ctx) //nolint:errcheck // no jobs are in flight at close
		cancel()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.wg.Wait()
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]() //nolint:errcheck // teardown; the state dir is deleted next
	}
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
	os.RemoveAll(d.dir)
}
