package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/telemetry"
)

// route classifies a request by the program endpoint it hits.
type route int

const (
	rAct route = iota
	rFrame
	rIngest
	rWatch
	rManifest
	rChunk
	rCreate
	rAnswer
	rJoin
	rPkg
	rOther
	nRoutes
)

var routeNames = [nRoutes]string{"act", "frame", "ingest", "watch", "manifest", "chunk", "create", "answer", "join", "pkg", "other"}

func routeOf(p string) route {
	switch {
	case p == playsvc.ActPath:
		return rAct
	case p == playsvc.FramePath:
		return rFrame
	case p == telemetry.IngestPath:
		return rIngest
	case p == playsvc.RoomWatchPath:
		return rWatch
	case strings.HasPrefix(p, "/manifest/"):
		return rManifest
	case strings.HasPrefix(p, "/chunk/"):
		return rChunk
	case p == playsvc.CreatePath:
		return rCreate
	case p == playsvc.RoomAnswerPath:
		return rAnswer
	case p == playsvc.RoomJoinPath:
		return rJoin
	case strings.HasPrefix(p, "/pkg/"):
		return rPkg
	}
	return rOther
}

// routeStat accumulates one route's requests in a traced phase.
type routeStat struct {
	Count int64
	Ns    int64 // request start to response body closed
	Bytes int64 // request body plus response body
}

// peak tracks a concurrency level and its maximum.
type peak struct{ cur, max atomic.Int64 }

func (p *peak) enter() {
	n := p.cur.Add(1)
	for {
		m := p.max.Load()
		if n <= m || p.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (p *peak) leave() { p.cur.Add(-1) }

// worker is one load goroutine's instrumentation: its tracer, its HTTP
// client (a timing transport over the shared pool) and what that
// transport counted.
type worker struct {
	id   int
	tr   *Tracer
	http *http.Client

	mu       sync.Mutex
	routes   [nRoutes]routeStat
	connWait int64 // ns spent waiting for a connection
	conns    int64
	chunkLog []string // chunk hashes fetched while logging is on
	logging  bool

	retries atomic.Int64 // attempts that failed retryably (error, 429, 5xx)
}

func newWorker(id int, base http.RoundTripper, inflight *peak) *worker {
	w := &worker{id: id}
	w.http = &http.Client{Transport: &clientTransport{base: base, w: w, inflight: inflight}}
	return w
}

// startChunkLog begins recording the chunk hashes this worker fetches.
func (w *worker) startChunkLog() {
	w.mu.Lock()
	w.chunkLog, w.logging = w.chunkLog[:0], true
	w.mu.Unlock()
}

// stopChunkLog stops recording and returns the hashes fetched.
func (w *worker) stopChunkLog() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.logging = false
	return append([]string(nil), w.chunkLog...)
}

// resetStats clears the per-phase HTTP counters.
func (w *worker) resetStats() {
	w.mu.Lock()
	w.routes = [nRoutes]routeStat{}
	w.connWait, w.conns = 0, 0
	w.mu.Unlock()
	w.retries.Store(0)
}

// clientTransport times every request a learner, driver or watcher makes.
// With tracing on it records a leaf span per request (closed when the
// body is closed), measures connection wait with httptrace, and stamps
// the span id into the trace header so the gateway hop can name its
// parent. With tracing off it only counts retryable failures and the
// chunk hashes the course-sync check needs.
type clientTransport struct {
	base     http.RoundTripper
	w        *worker
	inflight *peak
}

func retryable(resp *http.Response, err error) bool {
	return err != nil || faultnet.RetryableStatus(resp.StatusCode)
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := t.w
	r := routeOf(req.URL.Path)
	if r == rChunk {
		w.mu.Lock()
		if w.logging {
			w.chunkLog = append(w.chunkLog, path.Base(req.URL.Path))
		}
		w.mu.Unlock()
	}
	t.inflight.enter()
	if !w.tr.On() {
		resp, err := t.base.RoundTrip(req)
		t.inflight.leave()
		if retryable(resp, err) {
			w.retries.Add(1)
		}
		return resp, err
	}
	began := time.Now()
	span := w.tr.Leaf("http." + routeNames[r])
	var getConn time.Time
	var wait time.Duration
	ct := &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { wait = time.Since(getConn) },
	}
	req = req.Clone(httptrace.WithClientTrace(req.Context(), ct))
	obs.TraceContext{Trace: fmt.Sprintf("pb%d-%d", w.id, span), Span: "0"}.Inject(req.Header)
	sent := req.ContentLength
	resp, err := t.base.RoundTrip(req)
	if retryable(resp, err) {
		w.retries.Add(1)
	}
	done := func(n int64) {
		w.tr.Close(span)
		t.inflight.leave()
		w.mu.Lock()
		st := &w.routes[r]
		st.Count++
		st.Ns += int64(time.Since(began))
		st.Bytes += max(sent, 0) + n
		w.connWait += int64(wait)
		w.conns++
		w.mu.Unlock()
	}
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// tracedBody counts response bytes and reports once when closed.
type tracedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// hopTransport wraps the gateway's client (playsvc.ClusterOptions.HTTP):
// every gateway→node round trip passes through it on a server goroutine.
// With tracing on it records a "gateway.hop" span under the learner
// request named by the trace header, and tracks how many hops are in
// flight at once.
type hopTransport struct {
	base     http.RoundTripper
	tracers  atomic.Pointer[[]*Tracer] // load goroutines' tracers, by worker id
	inflight peak
}

// parentOf decodes the "pb<worker>-<span>" trace id clientTransport sets.
func parentOf(req *http.Request) (worker, span int, ok bool) {
	tc := obs.TraceFromRequest(req)
	id, found := strings.CutPrefix(tc.Trace, "pb")
	if !found {
		return 0, 0, false
	}
	ws, ss, found := strings.Cut(id, "-")
	if !found {
		return 0, 0, false
	}
	w, err1 := strconv.Atoi(ws)
	s, err2 := strconv.Atoi(ss)
	return w, s, err1 == nil && err2 == nil
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	trs := h.tracers.Load()
	if trs == nil {
		return h.base.RoundTrip(req)
	}
	h.inflight.enter()
	var tr *Tracer
	wid, parent, ok := parentOf(req)
	if ok && wid >= 0 && wid < len(*trs) {
		tr = (*trs)[wid]
	}
	var start int64
	if tr.On() {
		start = tr.now()
	}
	resp, err := h.base.RoundTrip(req)
	done := func(int64) {
		h.inflight.leave()
		if tr.On() {
			tr.child("gateway.hop", start, tr.now(), parent, tr.opOf(parent))
		}
	}
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}
