package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"gpuscale/internal/obs"
)

// endToEndMetrics and perLayerMetrics name every reported metric with
// its unit; BENCHMARK.json lists the same names (a self-test holds the
// two in step).
var endToEndMetrics = []struct{ name, unit string }{
	{"job_s", "s"}, {"complete_s", "s"}, {"fetch_s", "s"}, {"cells_per_s", "1/s"},
	{"cpu_s_per_job", "s"}, {"alloc_mb_per_job", "MB"}, {"rss_peak_mb", "MB"}, {"setup_s", "s"},
}

var perLayerMetrics = []struct{ name, unit string }{
	{"job_fail_frac", "frac"}, {"cell_fail_frac", "frac"},
	{"gcn.ns_per_cell", "ns"}, {"gcn.row_ms.max", "ms"}, {"gcn.allocs_per_cell", "count"},
	{"kernel.decode_ms", "ms"},
	{"sweep.run_s", "s"}, {"sweep.executor_ns_per_cell", "ns"},
	{"sweep.journal_append_ms.p50", "ms"}, {"sweep.journal_append_ms.p99", "ms"},
	{"sweep.journal_kb_per_row", "KiB"}, {"sweep.row_digest_ms.p50", "ms"},
	{"sweep.csv_encode_s", "s"}, {"sweep.csv_mb", "MB"},
	{"serve.submit_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.terminal_ms", "ms"},
	{"serve.fetch_mb_per_s", "MB/s"},
	{"dist.first_grant_ms", "ms"},
	{"dist.lease_rtt_ms.p50", "ms"}, {"dist.lease_rtt_ms.p99", "ms"},
	{"dist.lease_handler_ms.p50", "ms"}, {"dist.lease_handler_ms.p99", "ms"},
	{"dist.complete_rtt_ms.p50", "ms"}, {"dist.complete_rtt_ms.p99", "ms"},
	{"dist.complete_handler_ms.p50", "ms"}, {"dist.complete_handler_ms.p99", "ms"},
	{"dist.onrow_ms.p50", "ms"}, {"dist.coord_busy_frac", "frac"},
	{"dist.complete_req_kb", "KiB"}, {"dist.lease_resp_kb", "KiB"},
	{"dist.worker_row_ms.p50", "ms"}, {"dist.worker_engine_frac", "frac"},
	{"dist.grants_per_row", "count"}, {"dist.empty_acquire_frac", "frac"}, {"dist.renews_per_row", "count"},
	{"dist.tail_rtt_ms.p50", "ms"}, {"dist.tail_kb_per_row", "KiB"}, {"dist.standby_sync_ms", "ms"},
	{"bench.unattributed_frac", "frac"}, {"bench.trace_overhead_frac", "frac"},
}

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and whether it may
// be reported: the median needs one sample, a tail percentile needs
// minBeyond samples above its rank.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && len(s)-1-rank < minBeyond {
		return s[rank], false
	}
	return s[rank], true
}

// median is the midpoint median (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// failFracs counts failed jobs against jobs attempted and failed cells
// against cells attempted. No attempt at all counts as total failure.
func failFracs(jobs []*jobRecord, cellsPerJob int) (jobFrac, cellFrac float64) {
	if len(jobs) == 0 || cellsPerJob == 0 {
		return 1, 1
	}
	failedJobs, failedCells := 0, 0
	for _, j := range jobs {
		if !j.ok {
			failedJobs++
		}
		failedCells += j.cellsFailed
	}
	return float64(failedJobs) / float64(len(jobs)), float64(failedCells) / float64(len(jobs)*cellsPerJob)
}

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), samples: samples}
}

// setNA marks a metric whose layer does no work here (or whose tail has
// too few samples): its JSON value is 0, the report prints n/a.
func (r *result) setNA(name string) {
	r.metrics[name] = metric{Unit: unitOf(name), na: true}
}

// setQ reports a quantile, or n/a when the percentile rule forbids it.
func (r *result) setQ(name string, xs []float64, q float64) {
	v, ok := quantile(xs, q)
	if !ok {
		r.setNA(name)
		return
	}
	r.set(name, v, len(xs))
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("jobbench: unknown metric " + name)
}

// endToEnd fills the untraced run's metrics: each timing is the median
// of the run's jobs (fetch_s: of its fetches), and setup_s the median
// of its deployments. cells_per_s divides the correct cells by the
// summed job time, submit to fetched, so the benchmark's own work
// between jobs (the output check, further fetches, throwaway
// deployments) is not in it.
//
// Every time is scaled to the reference machine speed by speed probes
// (see speedProbe) over the same span: a fetch, which is short and is
// CSV encoding and copying, by the format part of the probes run right
// after it; the jobs and set-ups, which span the run, by the run's
// median probe. The report lines give the measured medians too.
func endToEnd(res *result, jobs []*jobRecord, in *inputs, setups []float64, probes []probeSample) {
	var jobS, completeS, fetchS, rawFetchS, cpuS, allocMB, rssMB []float64
	goodCells := 0
	for _, j := range jobs {
		jobS = append(jobS, j.jobS())
		completeS = append(completeS, j.completeS())
		cpuS = append(cpuS, j.cpu.Seconds())
		for _, fs := range j.fetches {
			fetchS = append(fetchS, fs.seconds*formatRefS/fs.format)
			rawFetchS = append(rawFetchS, fs.seconds)
		}
		allocMB = append(allocMB, float64(j.allocBytes)/1e6)
		rssMB = append(rssMB, float64(j.rssPeakKB)*1024/1e6)
		goodCells += in.cells() - j.cellsFailed
	}
	n := len(jobs)
	run := medianProbe(probes)
	// f scales a time measured over the run to the reference speed:
	// below 1 when the machine ran slower.
	f := probeRefS / run.total()
	measured := map[string]float64{
		"job_s": median(jobS), "complete_s": median(completeS), "fetch_s": median(rawFetchS),
		"cells_per_s": float64(goodCells) / sum(jobS), "cpu_s_per_job": median(cpuS), "setup_s": median(setups),
	}
	res.set("job_s", measured["job_s"]*f, n)
	res.set("complete_s", measured["complete_s"]*f, n)
	res.set("fetch_s", median(fetchS), len(fetchS))
	res.set("cells_per_s", measured["cells_per_s"]/f, n)
	res.set("cpu_s_per_job", measured["cpu_s_per_job"]*f, n)
	res.set("alloc_mb_per_job", median(allocMB), n)
	res.set("rss_peak_mb", median(rssMB), n)
	res.set("setup_s", measured["setup_s"]*f, len(setups))
	jf, cf := failFracs(jobs, in.cells())
	raw, _ := json.Marshal(measured)
	res.notes = append(res.notes,
		fmt.Sprintf("job_fail_frac=%g cell_fail_frac=%g (also in the traced run's metrics)", jf, cf),
		fmt.Sprintf("speed probe: run median %.6f s format + %.6f s chase of thread CPU over %d probes (reference %g + %g s); run times scaled by %.4f",
			run.format, run.chase, len(probes), formatRefS, chaseRefS, f),
		fmt.Sprintf("measured (unscaled): %s", raw))
}

// breakdownRow is one line of the median job breakdown.
type breakdownRow struct {
	name  string
	ms    float64
	share float64
}

// jobSpans is one traced job's spans, sorted out by kind.
type jobSpans struct {
	rec      *jobRecord
	root     obs.Event
	byName   map[string][]obs.Event
	rpc      map[string][]obs.Event // client and worker RPCs by route
	handlers map[string][]obs.Event // "serve/<route>", "dist/<route>"
}

func (s *jobSpans) first(name string) (obs.Event, bool) {
	if evs := s.byName[name]; len(evs) > 0 {
		return evs[0], true
	}
	return obs.Event{}, false
}

func ms(e obs.Event) float64 { return e.Dur / 1e3 }

func argNum(e obs.Event, k string) float64 {
	v, _ := e.Args[k].(float64)
	return v
}

func argStr(e obs.Event, k string) string {
	v, _ := e.Args[k].(string)
	return v
}

// groupSpans sorts the trace into one jobSpans per traced job.
func groupSpans(events []obs.Event, jobs []*jobRecord) ([]*jobSpans, error) {
	byTrace := map[string]*jobSpans{}
	byID := map[string]*jobRecord{}
	for _, j := range jobs {
		if j.traced {
			byID[j.id] = j
		}
	}
	for _, e := range events {
		if e.Name == "job" {
			if j := byID[argStr(e, "job")]; j != nil {
				byTrace[e.Trace] = &jobSpans{rec: j, root: e, byName: map[string][]obs.Event{},
					rpc: map[string][]obs.Event{}, handlers: map[string][]obs.Event{}}
			}
		}
	}
	for _, e := range events {
		s := byTrace[e.Trace]
		if s == nil {
			continue
		}
		switch e.Name {
		case "rpc":
			s.rpc[argStr(e, "route")] = append(s.rpc[argStr(e, "route")], e)
		case "handler":
			k := e.Cat + "/" + argStr(e, "route")
			s.handlers[k] = append(s.handlers[k], e)
		default:
			s.byName[e.Name] = append(s.byName[e.Name], e)
		}
	}
	var out []*jobSpans
	for _, j := range jobs {
		for _, s := range byTrace {
			if s.rec == j {
				out = append(out, s)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the trace holds no traced job")
	}
	return out, nil
}

// perLayer fills the traced run's metrics from the recorded spans, the
// service's registry reads (carried in the spans) and the replays.
func perLayer(res *result, wl *workload, in *inputs, jobs []*jobRecord, tr *tracer, rp *replayed, syncs []float64) error {
	events, err := tr.events()
	if err != nil {
		return fmt.Errorf("reading the trace back: %w", err)
	}
	spans, err := groupSpans(events, jobs)
	if err != nil {
		return err
	}
	jf, cf := failFracs(jobs, in.cells())
	res.set("job_fail_frac", jf, len(jobs))
	res.set("cell_fail_frac", cf, len(jobs)*in.cells())

	cells := float64(in.cells())
	rows := float64(len(in.kernels))
	res.set("gcn.ns_per_cell", rp.gcnNS/cells, in.cells())
	rowMS := make([]float64, len(rp.gcnRowNS))
	for i, ns := range rp.gcnRowNS {
		rowMS[i] = ns / 1e6
	}
	res.set("gcn.row_ms.max", maxOf(rowMS), len(rowMS))
	res.set("gcn.allocs_per_cell", float64(rp.gcnAllocs)/cells, in.cells())
	res.set("kernel.decode_ms", rp.kernelDecodeMS, 5)
	res.set("sweep.run_s", rp.sweepRunS, 1)
	res.set("sweep.executor_ns_per_cell", (rp.sweep1S*1e9-rp.gcnNS)/cells, in.cells())
	res.setQ("sweep.journal_append_ms.p50", rp.journalMS, 0.5)
	res.setQ("sweep.journal_append_ms.p99", rp.journalMS, 0.99)
	res.set("sweep.journal_kb_per_row", rp.journalKB, len(in.kernels))
	res.setQ("sweep.row_digest_ms.p50", rp.digestMS, 0.5)
	res.set("sweep.csv_encode_s", rp.csvEncodeS, 3)
	res.set("sweep.csv_mb", float64(rp.csvBytes)/1e6, 1)

	var submit, queue, terminal, fetchRate, unattributed []float64
	var leaseRTT, leaseH, completeRTT, completeH, onrow, workerRow, tail, firstGrant, busy []float64
	var leaseKB, completeKB []float64
	var grants, empties, acquires, renews, tailBytes, engineNS, workerNS float64
	var breakdown = map[string][]float64{}
	for _, s := range spans {
		wall := ms(s.root)
		sub := sumMS(s.rpc["submit"])
		fetch := sumMS(s.rpc["matrix"])
		submit = append(submit, sub)
		q, _ := s.first("queue_wait")
		queue = append(queue, ms(q))
		if t, ok := s.first("terminal"); ok {
			terminal = append(terminal, ms(t))
		}
		if fetch > 0 {
			fetchRate = append(fetchRate, float64(s.rec.csvBytes)/1e6/(fetch/1e3))
		}
		// The blocking steps: submit, queue wait, execution, the
		// terminal CSV archive, fetch. Fleet execution is the RunSweep
		// span; the local executor's is the replayed sweep plus its
		// journal appends.
		exec := (rp.sweepRunS*1e3 + median(rp.journalMS)*rows)
		if rs, ok := s.first("run_sweep"); ok {
			exec = ms(rs)
			var first float64 = -1
			for _, h := range s.handlers["dist/lease"] {
				if argNum(h, "status") == 200 {
					if end := h.TS + h.Dur; first < 0 || end < first {
						first = end
					}
				}
			}
			if first >= 0 {
				firstGrant = append(firstGrant, (first-rs.TS)/1e3)
			}
		}
		archive := rp.csvEncodeS * 1e3
		attributed := sub + ms(q) + exec + archive + fetch
		unattributed = append(unattributed, 1-attributed/wall)
		for name, v := range map[string]float64{"submit": sub, "queue_wait": ms(q), "execute": exec,
			"terminal_archive": archive, "fetch": fetch, "unattributed": wall - attributed, "job (wall)": wall} {
			breakdown[name] = append(breakdown[name], v)
		}

		// Fleet layers.
		leaseEnd := map[string]float64{}
		for _, e := range s.rpc["lease"] {
			acquires++
			switch argNum(e, "status") {
			case 200:
				grants++
				leaseRTT = append(leaseRTT, ms(e))
				leaseKB = append(leaseKB, argNum(e, "resp_bytes")/1024)
				leaseEnd[rowKey(e)] = e.TS + e.Dur
			case 204:
				empties++
			}
		}
		for _, e := range s.rpc["complete"] {
			completeRTT = append(completeRTT, ms(e))
			completeKB = append(completeKB, argNum(e, "req_bytes")/1024)
			if end, ok := leaseEnd[rowKey(e)]; ok {
				workerRow = append(workerRow, (e.TS-end)/1e3)
				workerNS += (e.TS - end) * 1e3
				if r := int(argNum(e, "row")); r < len(rp.gcnRowNS) {
					engineNS += rp.gcnRowNS[r]
				}
			}
		}
		renews += float64(len(s.rpc["renew"]))
		for _, e := range s.rpc["tail"] {
			tail = append(tail, ms(e))
			tailBytes += argNum(e, "resp_bytes")
		}
		leaseH = append(leaseH, msOf(s.handlers["dist/lease"], 200)...)
		completeH = append(completeH, msOf(s.handlers["dist/complete"], 200)...)
		for _, e := range s.byName["onrow"] {
			onrow = append(onrow, ms(e))
		}
		busy = append(busy, (sumMS(s.handlers["dist/lease"])+sumMS(s.handlers["dist/renew"])+sumMS(s.handlers["dist/complete"]))/wall)
	}
	res.set("serve.submit_ms", median(submit), len(submit))
	res.set("serve.queue_wait_ms", median(queue), len(queue))
	if len(terminal) > 0 {
		res.set("serve.terminal_ms", median(terminal), len(terminal))
	} else {
		res.setNA("serve.terminal_ms")
	}
	res.set("serve.fetch_mb_per_s", median(fetchRate), len(fetchRate))
	res.set("bench.unattributed_frac", median(unattributed), len(unattributed))
	for _, name := range []string{"submit", "queue_wait", "execute", "terminal_archive", "fetch", "unattributed", "job (wall)"} {
		v := median(breakdown[name])
		res.breakdown = append(res.breakdown, breakdownRow{name: name, ms: v, share: v / median(breakdown["job (wall)"])})
	}

	traced, untraced := []float64{}, []float64{}
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, j.jobS())
		} else {
			untraced = append(untraced, j.jobS())
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		res.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1, len(traced)+len(untraced))
	} else {
		res.setNA("bench.trace_overhead_frac")
	}

	distNames := []string{"dist.first_grant_ms", "dist.lease_rtt_ms.p50", "dist.lease_rtt_ms.p99",
		"dist.lease_handler_ms.p50", "dist.lease_handler_ms.p99", "dist.complete_rtt_ms.p50",
		"dist.complete_rtt_ms.p99", "dist.complete_handler_ms.p50", "dist.complete_handler_ms.p99",
		"dist.onrow_ms.p50", "dist.coord_busy_frac", "dist.complete_req_kb", "dist.lease_resp_kb",
		"dist.worker_row_ms.p50", "dist.worker_engine_frac", "dist.grants_per_row",
		"dist.empty_acquire_frac", "dist.renews_per_row"}
	if wl.workers == 0 {
		for _, n := range distNames {
			res.setNA(n)
		}
	} else {
		jobsN := float64(len(spans))
		res.set("dist.first_grant_ms", median(firstGrant), len(firstGrant))
		res.setQ("dist.lease_rtt_ms.p50", leaseRTT, 0.5)
		res.setQ("dist.lease_rtt_ms.p99", leaseRTT, 0.99)
		res.setQ("dist.lease_handler_ms.p50", leaseH, 0.5)
		res.setQ("dist.lease_handler_ms.p99", leaseH, 0.99)
		res.setQ("dist.complete_rtt_ms.p50", completeRTT, 0.5)
		res.setQ("dist.complete_rtt_ms.p99", completeRTT, 0.99)
		res.setQ("dist.complete_handler_ms.p50", completeH, 0.5)
		res.setQ("dist.complete_handler_ms.p99", completeH, 0.99)
		res.setQ("dist.onrow_ms.p50", onrow, 0.5)
		res.set("dist.coord_busy_frac", median(busy), len(busy))
		res.set("dist.complete_req_kb", mean(completeKB), len(completeKB))
		res.set("dist.lease_resp_kb", mean(leaseKB), len(leaseKB))
		res.setQ("dist.worker_row_ms.p50", workerRow, 0.5)
		if workerNS > 0 {
			res.set("dist.worker_engine_frac", engineNS/workerNS, len(workerRow))
		} else {
			res.setNA("dist.worker_engine_frac")
		}
		res.set("dist.grants_per_row", grants/(rows*jobsN), int(grants))
		if acquires > 0 {
			res.set("dist.empty_acquire_frac", empties/acquires, int(acquires))
		} else {
			res.setNA("dist.empty_acquire_frac")
		}
		res.set("dist.renews_per_row", renews/(rows*jobsN), int(renews))
	}
	if wl.standby {
		res.setQ("dist.tail_rtt_ms.p50", tail, 0.5)
		res.set("dist.tail_kb_per_row", tailBytes/1024/(rows*float64(len(spans))), len(tail))
		res.set("dist.standby_sync_ms", median(syncs), len(syncs))
	} else {
		for _, n := range []string{"dist.tail_rtt_ms.p50", "dist.tail_kb_per_row", "dist.standby_sync_ms"} {
			res.setNA(n)
		}
	}
	return nil
}

func rowKey(e obs.Event) string {
	return fmt.Sprintf("%s/%s/%d", argStr(e, "role"), argStr(e, "job"), int(argNum(e, "row")))
}

func sumMS(evs []obs.Event) float64 {
	t := 0.0
	for _, e := range evs {
		t += ms(e)
	}
	return t
}

// msOf returns the durations of the spans that answered status.
func msOf(evs []obs.Event, status float64) []float64 {
	var out []float64
	for _, e := range evs {
		if argNum(e, "status") == status {
			out = append(out, ms(e))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
