package paper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
)

// Swarm metrics. Read latency is measured client-side (full HTTP round
// trip over the in-memory pipe), which is the number a real client
// would see; server.read.ns remains the handler-only figure.
var (
	obsSwarmReadNs   = obs.H("paper.swarm.read.ns")
	obsSwarmReads    = obs.C("paper.swarm.reads")
	obsSwarmReadErrs = obs.C("paper.swarm.read.errors")
	obsSwarmEvents   = obs.C("paper.swarm.sse.events")
	obsSwarmResets   = obs.C("paper.swarm.sse.resets")
)

// SwarmOptions configures MeasureServing: a paced writer applying
// windows through the maintained pipeline while a swarm of read
// clients polls snapshots and holds SSE changefeeds open.
type SwarmOptions struct {
	Txns    int // total transactions through the writer
	Batch   int // window size (acceptance runs use 64)
	Workers int // ApplyBatch view-application goroutines

	Clients      int           // concurrent read clients (pollers + SSE)
	SSEFraction  float64       // fraction of clients holding changefeeds (default 0.05)
	WindowRate   float64       // offered writer load, windows/second (default 50)
	PollInterval time.Duration // mean poller wake interval (default 2s, jittered)
}

func (o *SwarmOptions) defaults() {
	if o.SSEFraction <= 0 {
		o.SSEFraction = 0.05
	}
	if o.WindowRate <= 0 {
		o.WindowRate = 50
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
}

// runPaced is Run's batched path under offered load: windows are
// released at opts.WindowRate rather than flat out, which is the honest
// writer model for a serving measurement — the question is whether the
// writer keeps its schedule while readers consume the same cores, not
// how fast it goes with the machine to itself. A writer that falls
// behind does not sleep (it catches up), so achieved txns/sec below the
// offered rate is the overload signal the swarm gate trips on.
func (th *Throughput) runPaced(n, batch int, interval time.Duration) error {
	next := time.Now()
	for done := 0; done < n; {
		size := batch
		if n-done < size {
			size = n - done
		}
		if cap(th.wbuf) < size {
			th.wbuf = make([]txn.Transaction, size)
			th.slots = make([]txnSlot, size)
		}
		window := th.wbuf[:size]
		for i := range window {
			th.fillTxn(&window[i], i)
		}
		if _, err := th.m.ApplyBatch(window); err != nil {
			return err
		}
		done += size
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	return nil
}

// MeasureServing is the client-swarm benchmark: it measures the paced
// writer twice — alone, then under opts.Clients concurrent readers over
// an in-memory listener — and reports the loaded row with the no-reader
// baseline and the client-side read p99 attached. A fraction of the
// pollers double as isolation checkers (pin an epoch, re-read it later,
// demand byte-identity); any violation fails the measurement rather
// than skewing it.
func MeasureServing(cfg corpus.Figure5Config, opts SwarmOptions) (ThroughputRow, error) {
	opts.defaults()
	interval := time.Duration(float64(time.Second) / opts.WindowRate)

	// Arm 1: no readers, same pacing — the baseline denominator.
	base, err := NewThroughput(cfg, opts.Workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	start := time.Now()
	if err := base.runPaced(opts.Txns, opts.Batch, interval); err != nil {
		return ThroughputRow{}, err
	}
	baseline := float64(opts.Txns) / time.Since(start).Seconds()

	// Arm 2: fresh harness with the serving stack attached.
	th, err := NewThroughput(cfg, opts.Workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	root := th.d.Roots[0]
	rel, ok := th.m.ViewRel(root)
	if !ok {
		return ThroughputRow{}, fmt.Errorf("swarm: root view not materialized")
	}
	viewName := maintain.ViewName(root)
	hub, err := server.NewHub(server.HubConfig{Views: []server.ViewSource{{
		Name: viewName, Schema: rel.Def.Schema, EqID: root.ID, Rel: rel,
	}}})
	if err != nil {
		return ThroughputRow{}, err
	}
	th.m.SetWindowHook(hub.OnWindow)
	defer func() {
		th.m.SetWindowHook(nil)
		hub.Close()
	}()
	srv := server.New(server.Config{Hub: hub})
	ln := server.NewMemListener()
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		ln.Close()
	}()

	sseClients := int(float64(opts.Clients) * opts.SSEFraction)
	pollers := opts.Clients - sseClients

	ctx, cancel := context.WithCancel(context.Background())
	var (
		wg         sync.WaitGroup
		violations atomic.Int64
	)
	readBefore := obsSwarmReadNs.Snapshot()
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every 10th poller is an isolation checker.
			swarmPoller(ctx, ln, viewName, i, opts.PollInterval, i%10 == 0, &violations)
		}(i)
	}
	for i := 0; i < sseClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			swarmSubscriber(ctx, ln, viewName)
		}(i)
	}

	runtime.GC()
	start = time.Now()
	werr := th.runPaced(opts.Txns, opts.Batch, interval)
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if werr != nil {
		return ThroughputRow{}, werr
	}
	if n := violations.Load(); n != 0 {
		return ThroughputRow{}, fmt.Errorf("swarm: %d snapshot-isolation violations", n)
	}
	if drift, err := th.Drift(); err != nil {
		return ThroughputRow{}, err
	} else if drift != "" {
		return ThroughputRow{}, fmt.Errorf("swarm run drifted: %s", drift)
	}

	readWindow := obsSwarmReadNs.Snapshot().Sub(readBefore)
	return ThroughputRow{
		SchemaVersion:      BenchSchemaVersion,
		Batch:              opts.Batch,
		Workers:            opts.Workers,
		Txns:               opts.Txns,
		TxnsPerSec:         float64(opts.Txns) / elapsed.Seconds(),
		NoReaderTxnsPerSec: baseline,
		ReadP99Ns:          readWindow.Quantile(0.99),
		ReadClients:        pollers,
		SSEClients:         sseClients,
		CPUs:               runtime.NumCPU(),
	}, nil
}

// ServingTable runs MeasureServing and renders the row as text next to
// its no-reader baseline.
func ServingTable(cfg corpus.Figure5Config, opts SwarmOptions) (ThroughputRow, string, error) {
	row, err := MeasureServing(cfg, opts)
	if err != nil {
		return ThroughputRow{}, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Client swarm (batch %d, %d workers, offered %.0f windows/s, %d CPUs)\n",
		row.Batch, row.Workers, opts.WindowRate, row.CPUs)
	fmt.Fprintf(&b, "  clients               %d pollers + %d SSE\n", row.ReadClients, row.SSEClients)
	fmt.Fprintf(&b, "  writer txns/s         %.0f (no readers: %.0f, ratio %.3f)\n",
		row.TxnsPerSec, row.NoReaderTxnsPerSec, row.TxnsPerSec/row.NoReaderTxnsPerSec)
	fmt.Fprintf(&b, "  read p99              %.3f ms (client-side)\n", float64(row.ReadP99Ns)/1e6)
	s := obs.Default.Snapshot()
	fmt.Fprintf(&b, "  reads served          %d (%d errors)\n",
		s.Counters["paper.swarm.reads"], s.Counters["paper.swarm.read.errors"])
	fmt.Fprintf(&b, "  sse events consumed   %d (%d resets, %d dropped server-side)\n",
		s.Counters["paper.swarm.sse.events"], s.Counters["paper.swarm.sse.resets"],
		s.Counters["server.sse.dropped"])
	return row, b.String(), nil
}

// swarmPoller is one read client: it wakes on a jittered interval
// (staggered by index so 10k clients don't thunder in phase) and GETs
// the current view snapshot. Checkers additionally keep the previous
// read pinned by epoch and demand byte-identity on re-read — the
// swarm's live snapshot-isolation probe.
func swarmPoller(ctx context.Context, ln *server.MemListener, view string, idx int,
	interval time.Duration, checker bool, violations *atomic.Int64) {
	client := ln.Client()
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(int64(idx)*2654435761 + 1))
	url := "http://mv/view/" + view + "?limit=16"

	// Stagger the first wake across the full interval.
	if !sleepCtx(ctx, time.Duration(rng.Int63n(int64(interval)+1))) {
		return
	}
	var pinEpoch uint64
	var pinBody []byte
	for {
		t0 := time.Now()
		code, body, err := swarmGet(ctx, client, url)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			obsSwarmReadErrs.Inc()
		} else if code == http.StatusOK {
			obsSwarmReadNs.Observe(time.Since(t0).Nanoseconds())
			obsSwarmReads.Inc()
		}

		if checker && err == nil && code == http.StatusOK {
			if pinBody != nil {
				pcode, pbody, perr := swarmGet(ctx, client,
					fmt.Sprintf("%s&epoch=%d", url, pinEpoch))
				switch {
				case perr != nil:
					if ctx.Err() != nil {
						return
					}
					obsSwarmReadErrs.Inc()
				case pcode == http.StatusOK:
					if string(pbody) != string(pinBody) {
						violations.Add(1)
					}
				case pcode == http.StatusGone:
					// retention evicted the pin; re-pin below
				default:
					obsSwarmReadErrs.Inc()
				}
			}
			var vr struct {
				Epoch uint64 `json:"epoch"`
			}
			if json.Unmarshal(body, &vr) == nil {
				pinEpoch, pinBody = vr.Epoch, body
			}
		}

		// Jittered sleep: uniform over [interval/2, 3*interval/2).
		d := interval/2 + time.Duration(rng.Int63n(int64(interval)+1))
		if !sleepCtx(ctx, d) {
			return
		}
	}
}

// swarmSubscriber holds an SSE changefeed open and consumes it,
// reconnecting from scratch if the hub resets it for falling behind
// (the backpressure policy under test).
func swarmSubscriber(ctx context.Context, ln *server.MemListener, view string) {
	client := ln.Client()
	defer client.CloseIdleConnections()
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, "GET", "http://mv/feed/"+view, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				// Count data frames, not bytes: each event carries one
				// "\ndata:" marker.
				for i := 0; i+5 < n; i++ {
					if buf[i] == '\n' && string(buf[i+1:i+6]) == "data:" {
						obsSwarmEvents.Inc()
					}
				}
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		if ctx.Err() == nil {
			obsSwarmResets.Inc()
		}
	}
}

// swarmGet is one GET with the request bound to ctx.
func swarmGet(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// sleepCtx sleeps d or until ctx is done; false means ctx fired.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
