package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trigene/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the public entry point it calls. Parent 0 marks the
// operation's root span; Run numbers the operation within the run.
type span struct {
	Run     int    `json:"run"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps every span of a run in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// the untraced operations run.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	// bg is the parent for spans recorded on goroutines that carry no
	// span of their own (cluster workers, the coordinator's handler):
	// the client-side span currently blocked on them.
	bg atomic.Int64

	mu    sync.Mutex
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the offset from the run's origin (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// setParent makes id the parent of spans recorded on goroutines that
// carry no span of their own.
func (t *tracer) setParent(id int64) {
	if t != nil {
		t.bg.Store(id)
	}
}

// start opens a span under parent and returns its id and the function
// that closes it.
func (t *tracer) start(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	begin := t.now()
	return id, func() { t.add(id, parent, name, begin, t.now()) }
}

// add records a finished span (used directly for spans whose bounds
// come from a Report rather than from the benchmark's clock).
func (t *tracer) add(id, parent int64, name string, startNs, endNs int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, StartNs: startNs, EndNs: endNs})
	t.mu.Unlock()
}

// beginRun starts a new traced operation and returns its spans' index.
func (t *tracer) beginRun(run int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run = run
	return len(t.spans)
}

// since returns the spans recorded from index i on.
func (t *tracer) since(i int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[i:]...)
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. The root's self
// time is the part of the operation no layer span accounts for.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.seconds() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length in seconds of the union of the children's
// intervals, clipped to the parent's interval.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := int64(0), int64(math.MinInt64)
	for _, v := range ivs {
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return float64(total) / 1e9
}

// scrape reads every series of the registry's Prometheus exposition
// into a map keyed by the series line's name and labels, so layers'
// exported counters can be read as before/after deltas.
func scrape(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns after−before summed over every series whose key starts
// with prefix (a bare metric name matches all its label sets).
func delta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			d += v - before[k]
		}
	}
	return d
}

// spanHeader carries the caller's span id from the workers' and the
// client's HTTP transport to the coordinator's handler.
const spanHeader = "X-Trigenebench-Span"

// httpEvent is one HTTP exchange seen by a wrapped transport.
type httpEvent struct {
	route      string // lease, renew, done, dataset, submit, status, result, other
	startNs    int64
	endNs      int64
	empty      bool     // a lease poll answered 204 (no work)
	grantedTok []string // tokens handed out by a lease answer
	token      string   // the lease token a renew/done call names
}

// transport wraps the cluster client's HTTP transport: every request
// becomes a span under the tracer's background parent, and lease
// grants and completions are logged so per-tile latencies can be
// derived.
type transport struct {
	tr   *tracer
	base http.RoundTripper

	mu     sync.Mutex
	events []httpEvent
}

func route(method, path string) (name, token string) {
	p := strings.TrimPrefix(path, "/v1/")
	switch {
	case p == "lease":
		return "lease", ""
	case strings.HasPrefix(p, "lease/"):
		parts := strings.Split(p, "/")
		if len(parts) == 3 {
			return parts[2], parts[1] // renew, done, fail
		}
	case p == "jobs" && method == http.MethodPost:
		return "submit", ""
	case strings.HasPrefix(p, "jobs/"):
		switch {
		case strings.HasSuffix(p, "/dataset"):
			return "dataset", ""
		case strings.HasSuffix(p, "/result"):
			return "result", ""
		case strings.Count(p, "/") == 1:
			return "status", ""
		}
	}
	return "other", ""
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, token := route(req.Method, req.URL.Path)
	id, done := t.tr.start("http."+name, t.tr.bg.Load())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	ev := httpEvent{route: name, token: token, startNs: t.tr.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done()
		return resp, err
	}
	// Read the answer inside the span, so the span covers the whole
	// exchange and lease grants can be inspected.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	ev.endNs = t.tr.now()
	if name == "lease" {
		switch resp.StatusCode {
		case http.StatusNoContent:
			ev.empty = true
		case http.StatusOK:
			var g struct {
				Token   string `json:"token"`
				Granted []struct {
					Token string `json:"token"`
				} `json:"granted"`
			}
			if json.Unmarshal(body, &g) == nil {
				if len(g.Granted) == 0 {
					ev.grantedTok = []string{g.Token}
				}
				for _, tg := range g.Granted {
					ev.grantedTok = append(ev.grantedTok, tg.Token)
				}
			}
		}
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
	return resp, nil
}

// take returns and clears the logged exchanges.
func (t *transport) take() []httpEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.events
	t.events = nil
	return ev
}

// handler wraps the coordinator's HTTP handler: each request becomes a
// span under the caller's transport span, and request and response
// body bytes are counted as wire bytes.
type handler struct {
	tr    *tracer
	next  http.Handler
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	name, _ := route(r.Method, r.URL.Path)
	_, done := h.tr.start("coord."+name, parent)
	defer done()
	r.Body = countingBody{r.Body, &h.bytes}
	h.next.ServeHTTP(countingWriter{w, &h.bytes}, r)
}
