package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuscale/internal/obs"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

// spanHeader carries a client RPC span's identity to the handler that
// serves it, as "<trace id>-<span id>". Only the benchmark's own
// wrappers set and read it; the program never sees it as anything but
// an unknown header.
const spanHeader = "X-Jobbench-Span"

// tracer records spans around calls into each layer, from wrappers
// that live in the benchmark: an http.RoundTripper on every client,
// middleware around the service and coordinator handlers, and the
// RunSweep/OnRow hooks. Spans go to an obs.TraceWriter over an
// in-memory buffer and are read back when the run ends. A nil *tracer
// installs no wrappers at all.
type tracer struct {
	tw  *obs.TraceWriter
	buf bytes.Buffer
	// job is the traced job in flight (nil between jobs and during
	// untraced jobs): every span recorded while it is set joins its
	// trace.
	job atomic.Pointer[obs.SpanContext]
	// setupTrace groups the spans recorded while deploying.
	setupTrace string
}

func newTracer() *tracer {
	t := &tracer{setupTrace: obs.NewTraceID()}
	t.tw = obs.NewTraceWriter(&t.buf)
	t.tw.SetProcess("jobbench")
	return t
}

// span records one complete span.
func (t *tracer) span(name, cat string, sc obs.SpanContext, parent string, start time.Time, d time.Duration, args map[string]any) {
	t.tw.CompleteSpan(name, cat, 0, sc, parent, start, d, args)
}

// beginJob opens a traced job: spans recorded from now on carry its
// trace ID, parented under its root span.
func (t *tracer) beginJob() {
	sc := obs.NewSpanContext()
	t.job.Store(&sc)
}

// endJob closes the traced job's root span and records the intervals
// the client measured around the program: the queue wait the service
// reported and the terminal phase from the last journaled row to the
// observed complete.
func (t *tracer) endJob(j *jobRecord) {
	sc := t.job.Swap(nil)
	args := map[string]any{"job": j.id, "csv_bytes": j.csvBytes}
	t.span("job", "bench", *sc, "", j.start, j.fetched.Sub(j.start), args)
	t.span("queue_wait", "serve", sc.Child(), sc.SpanID, j.submitted, j.queueWait, nil)
	if !j.lastRow.IsZero() && j.lastRow.Before(j.completed) {
		t.span("terminal", "serve", sc.Child(), sc.SpanID, j.lastRow, j.completed.Sub(j.lastRow), nil)
	}
}

// active returns the traced job in flight, or nil.
func (t *tracer) active() *obs.SpanContext {
	if t == nil {
		return nil
	}
	return t.job.Load()
}

// wrapRunSweep times the fleet executor seam and wraps its OnRow hook.
func (t *tracer) wrapRunSweep(next func(context.Context, serve.SweepRequest) (*sweep.Matrix, *sweep.RunReport, error)) func(context.Context, serve.SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
	return func(ctx context.Context, req serve.SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		job := t.active()
		if job == nil {
			return next(ctx, req)
		}
		onRow := req.OnRow
		req.OnRow = func(m *sweep.Matrix, r int) {
			start := time.Now()
			onRow(m, r)
			t.span("onrow", "dist", job.Child(), job.SpanID, start, time.Since(start), map[string]any{"row": r})
		}
		start := time.Now()
		m, rep, err := next(ctx, req)
		t.span("run_sweep", "dist", job.Child(), job.SpanID, start, time.Since(start), nil)
		return m, rep, err
	}
}

// middleware records a handler span for every request that carries
// the span header, parented under the client RPC span that sent it.
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, parent, ok := strings.Cut(r.Header.Get(spanHeader), "-")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.span("handler", layer, obs.SpanContext{TraceID: traceID, SpanID: obs.NewSpanID()}, parent, start, time.Since(start),
			map[string]any{"route": route(r.Method, r.URL.Path), "status": cw.status, "resp_bytes": cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// transport wraps base with RPC spans for role ("client", a worker
// name, "standby").
func (t *tracer) transport(role string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &spanTransport{t: t, role: role, base: base}
}

type spanTransport struct {
	t    *tracer
	role string
	base http.RoundTripper
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	job := s.t.active()
	rt := route(req.Method, req.URL.Path)
	// The client's status polls are the benchmark's own waiting, not
	// the job's work: they stay untraced.
	if job == nil || rt == "job_status" {
		return s.base.RoundTrip(req)
	}
	sc := job.Child()
	args := map[string]any{"role": s.role, "route": rt, "req_bytes": req.ContentLength}
	if rt == "complete" && req.GetBody != nil {
		if b, err := req.GetBody(); err == nil {
			addJobRow(args, b)
		}
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, sc.TraceID+"-"+sc.SpanID)
	start := time.Now()
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		args["error"] = err.Error()
		s.t.span("rpc", s.role, sc, job.SpanID, start, time.Since(start), args)
		return nil, err
	}
	args["status"] = resp.StatusCode
	body := &spanBody{ReadCloser: resp.Body, done: func(n int64, head []byte) {
		args["resp_bytes"] = n
		if rt == "lease" && resp.StatusCode == http.StatusOK {
			addJobRow(args, bytes.NewReader(head))
		}
		s.t.span("rpc", s.role, sc, job.SpanID, start, time.Since(start), args)
	}}
	if rt == "lease" {
		body.keep = true
	}
	resp.Body = body
	return resp, nil
}

// spanBody ends its RPC span when the caller closes the body: the
// round trip covers reading the whole response.
type spanBody struct {
	io.ReadCloser
	n    int64
	keep bool
	head []byte
	once sync.Once
	done func(n int64, head []byte)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.keep {
		b.head = append(b.head, p[:n]...)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n, b.head) })
	return err
}

// addJobRow reads the leading "job" and "row" fields of a lease or
// complete body without decoding the planes that follow them.
func addJobRow(args map[string]any, r io.Reader) {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return
	}
	found := 0
	for found < 2 && dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		switch tok {
		case "job":
			var s string
			if dec.Decode(&s) != nil {
				return
			}
			args["job"] = s
			found++
		case "row":
			var n int
			if dec.Decode(&n) != nil {
				return
			}
			args["row"] = n
			found++
		default:
			var skip json.RawMessage
			if dec.Decode(&skip) != nil {
				return
			}
		}
	}
}

// route names an API call by its path: the service's submit, status
// and matrix calls, and the last path element of everything else
// (lease, renew, complete, tail, snapshot, status).
func route(method, path string) string {
	switch {
	case path == "/v1/jobs" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/matrix"):
		return "matrix"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "job_status"
	}
	return path[strings.LastIndexByte(path, '/')+1:]
}

// events flushes and parses every recorded span.
func (t *tracer) events() ([]obs.Event, error) {
	if err := t.tw.Flush(); err != nil {
		return nil, err
	}
	return obs.ReadEvents(bytes.NewReader(t.buf.Bytes()))
}

// writeFile saves the trace as JSONL, readable by cmd/sweeptrace.
func (t *tracer) writeFile(path string) error {
	if err := t.tw.Flush(); err != nil {
		return err
	}
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}
