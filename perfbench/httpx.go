package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
)

// httpServer serves a handler on a loopback port the benchmark owns, so
// it can close every connection (SSE streams included) at the end.
type httpServer struct {
	srv  *http.Server
	base string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close drops every connection and waits for the serve loop to return.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// client returns an HTTP client with its own single connection.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// timingHandler wraps the program's http.Handler and records one span per
// request, named by route. The handler span of a POST /txn carries the
// write's sequence number from the X-Bench-Seq header and is published in
// txnSpan so the exec hook can parent its spans to it.
type timingHandler struct {
	inner   http.Handler
	tr      *tracer
	txnSeq  atomic.Uint64
	txnSpan atomic.Uint64
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/txn":
		seq, _ := strconv.ParseUint(r.Header.Get("X-Bench-Seq"), 10, 64)
		sp := h.tr.start("server.txn_handler", 0, seq)
		h.txnSeq.Store(seq)
		h.txnSpan.Store(sp.id)
		h.inner.ServeHTTP(w, r)
		sp.end()
	case strings.HasPrefix(r.URL.Path, "/view/"):
		sp := h.tr.start("server.read_handler", 0, 0)
		h.inner.ServeHTTP(w, r)
		sp.end()
	default:
		h.inner.ServeHTTP(w, r)
	}
}

// viewPage is a decoded GET /view response. Tuples stay raw JSON: the
// server renders them deterministically, so the bytes are the key.
type viewPage struct {
	Rows []struct {
		Tuple json.RawMessage `json:"tuple"`
		Count int64           `json:"count"`
	} `json:"rows"`
}

// get reads one page of a view and returns its raw body.
func get(c *http.Client, base, view, query string) ([]byte, error) {
	resp, err := c.Get(base + "/view/" + view + "?" + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET /view/%s?%s: %s: %s", view, query, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// getView reads and decodes one page of a view.
func getView(c *http.Client, base, view, query string) (*viewPage, error) {
	body, err := get(c, base, view, query)
	if err != nil {
		return nil, err
	}
	var p viewPage
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// pageInfo scans a raw page body for its epoch and row count, which is
// all a timed page read checks; the body itself is kept for byte
// comparison.
func pageInfo(body []byte) (epoch uint64, rows int) {
	return uintAfter(body, `"epoch":`), bytes.Count(body, []byte(`{"tuple":`))
}

// uintAfter parses the unsigned integer that follows key in data.
func uintAfter(data []byte, key string) uint64 {
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return 0
	}
	rest := data[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return n
}

// rowBag is a view state keyed by raw tuple JSON.
type rowBag map[string]int64

func (p *viewPage) bag() rowBag {
	b := rowBag{}
	for _, r := range p.Rows {
		b[string(r.Tuple)] += r.Count
	}
	return b
}

// diffBags describes the first difference between two bags ("" if equal).
func diffBags(got, want rowBag) string {
	for k, v := range want {
		if got[k] != v {
			return fmt.Sprintf("row %s: count %d, want %d", k, got[k], v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("extra row %s (count %d)", k, v)
		}
	}
	return ""
}

// feedEvent is one decoded SSE changefeed event.
type feedEvent struct {
	Seq     uint64 `json:"seq"`
	Changes []struct {
		Old   json.RawMessage `json:"old"`
		New   json.RawMessage `json:"new"`
		Count int64           `json:"count"`
	} `json:"changes"`
	at time.Time
}

// fold applies the event to a bag.
func (e *feedEvent) fold(b rowBag) {
	for _, c := range e.Changes {
		if len(c.Old) > 0 {
			b[string(c.Old)] -= c.Count
			if b[string(c.Old)] == 0 {
				delete(b, string(c.Old))
			}
		}
		if len(c.New) > 0 {
			b[string(c.New)] += c.Count
		}
	}
}

// sseClient subscribes to a view's changefeed over HTTP and hands each
// event, stamped with its arrival time, to onEvent on its own goroutine.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	resets atomic.Int64
	err    error
}

func subscribeSSE(base, view string, onEvent func(*feedEvent)) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/feed/"+view, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client().Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /feed/%s: %s", view, resp.Status)
	}
	s := &sseClient{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case bytes.HasPrefix(line, []byte("data: ")):
				ev := &feedEvent{at: time.Now()}
				if err := json.Unmarshal(line[len("data: "):], ev); err != nil {
					s.err = err
					return
				}
				onEvent(ev)
			case bytes.Equal(line, []byte(": reset")):
				s.resets.Add(1)
			}
		}
	}()
	return s, nil
}

// stop closes the stream and waits for the reader goroutine.
func (s *sseClient) stop() {
	s.cancel()
	<-s.done
}

// hubProbe observes the hub from inside the process: a timing window
// hook in front of Hub.OnWindow, and an in-process subscriber that sees
// each event as soon as the hub publishes it. Publish time is hook entry
// to in-process receipt; SSE delivery is in-process receipt to the HTTP
// client's receipt of the same feed seq.
type hubProbe struct {
	tr    *tracer
	hub   *server.Hub
	seqOf func() uint64 // the write in flight on the writer

	mu        sync.Mutex
	hooked    map[uint64]mark // window seq -> hook entry
	published map[uint64]mark // feed seq -> in-process receipt
	queueMax  int

	sub  *server.Subscription
	done chan struct{}
}

// hubQueue is the hub's queue-depth gauge.
var hubQueue = obs.G("server.hub.queue")

// mark is when something happened to the write with sequence seq.
type mark struct {
	at  time.Time
	seq uint64
}

// installHubProbe wraps the hub's window hook and subscribes in process.
func installHubProbe(tr *tracer, m *maintain.Maintainer, hub *server.Hub, view string, seqOf func() uint64) (*hubProbe, error) {
	p := &hubProbe{tr: tr, hub: hub, seqOf: seqOf, hooked: map[uint64]mark{},
		published: map[uint64]mark{}, done: make(chan struct{})}
	sub, err := hub.Subscribe(view, 0)
	if err != nil {
		return nil, err
	}
	p.sub = sub
	m.SetWindowHook(func(u maintain.WindowUpdate) {
		seq := p.seqOf()
		sp := tr.start("server.hook", 0, seq)
		// Marked before the hook runs: the hub may publish the window
		// before OnWindow returns.
		p.mu.Lock()
		p.hooked[u.Seq] = mark{sp.start, seq}
		p.mu.Unlock()
		hub.OnWindow(u)
		sp.end()
		// The hub's obs gauge, not Hub.Stats: Stats reads the feed
		// sequence without the hub's lock and races with its goroutine.
		if tr.keeps(seq) {
			depth := int(hubQueue.Value())
			p.mu.Lock()
			p.queueMax = max(p.queueMax, depth)
			p.mu.Unlock()
		}
	})
	go func() {
		defer close(p.done)
		for ev := range sub.Events() {
			now := time.Now()
			ws := uintAfter(ev.Data, `"window_seq":`)
			p.mu.Lock()
			h, ok := p.hooked[ws]
			p.published[ev.Seq] = mark{now, h.seq}
			p.mu.Unlock()
			if ok {
				tr.record("server.publish", 0, h.seq, h.at, now)
			}
		}
	}()
	return p, nil
}

// delivered records the SSE delivery span of one event the HTTP client
// received.
func (p *hubProbe) delivered(ev *feedEvent) {
	if p == nil {
		return
	}
	p.mu.Lock()
	pm, ok := p.published[ev.Seq]
	p.mu.Unlock()
	if ok {
		p.tr.record("server.sse_deliver", 0, pm.seq, pm.at, ev.at)
	}
}

// stop removes the hook and ends the in-process subscription.
func (p *hubProbe) stop(m *maintain.Maintainer) {
	if p == nil {
		return
	}
	m.SetWindowHook(p.hub.OnWindow)
	p.sub.Close()
	<-p.done
}

// layerServer reports the serving layer from the probe and handler spans.
func layerServer(rep *report, tr *tracer, p *hubProbe) {
	rep.pct(true, "server.hook_p50_us", "us", tr.durations("server.hook", time.Microsecond), 0.5)
	pub := tr.durations("server.publish", time.Millisecond)
	rep.pct(true, "server.publish_p50_ms", "ms", pub, 0.5)
	rep.pct(true, "server.publish_p99_ms", "ms", pub, 0.99)
	if p != nil {
		p.mu.Lock()
		rep.addLayer("server.queue_depth_max", "count", float64(p.queueMax), 0)
		p.mu.Unlock()
	}
	rep.pct(true, "server.sse_deliver_p50_ms", "ms", tr.durations("server.sse_deliver", time.Millisecond), 0.5)
	rep.pct(true, "server.txn_handler_p50_us", "us", tr.durations("server.txn_handler", time.Microsecond), 0.5)
	rep.pct(true, "server.read_handler_p50_us", "us", tr.durations("server.read_handler", time.Microsecond), 0.5)
}
