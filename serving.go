package mvmaint

import (
	"fmt"
	"sync"

	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ServeOptions configures System.NewServing.
type ServeOptions struct {
	// FeedDir, when non-empty, persists the changefeed journal there so
	// SSE subscribers can resume across server restarts. Empty keeps
	// the feed in memory only (live subscriptions still work; resume
	// replays nothing).
	FeedDir string
	// FS overrides the feed log's filesystem (default the OS).
	FS wal.FS
	// Retain bounds each view's epoch retention ring (default 64).
	Retain int
	// SubscriberBuffer is the per-SSE-subscriber ring size (default 256).
	SubscriberBuffer int
}

// Serving is a System's network surface: the snapshot/changefeed hub
// wired to the maintainer's window hook, and the HTTP server over it.
type Serving struct {
	Hub    *server.Hub
	Server *server.Server
	sys    *System

	// execMu serializes POST /txn statements into the single-writer
	// maintenance pipeline.
	execMu sync.Mutex
}

// NewServing builds the serving stack for a System: every declared
// non-assertion view becomes a served view (snapshot epochs + SSE
// changefeed), POST /txn feeds the maintained execution path, and the
// obs handlers are mounted. It installs the maintainer's window hook;
// call Close to detach it.
//
// Call NewServing while the system is quiescent (no concurrent
// Execute): the hub seeds its epoch-0 snapshots from view storage,
// which has no read locks.
func (s *System) NewServing(opts ServeOptions) (*Serving, error) {
	var feed *wal.FeedLog
	if opts.FeedDir != "" {
		fsys := opts.FS
		if fsys == nil {
			fsys = wal.OSFS{}
		}
		var err error
		feed, err = wal.OpenFeedLog(fsys, opts.FeedDir, wal.Options{})
		if err != nil {
			return nil, err
		}
	}
	var sources []server.ViewSource
	served := map[int]bool{} // a root declared under two names is served once
	for _, name := range s.names {
		e := s.roots[name]
		if s.DB.IsAssertion(name) || served[e.ID] {
			continue
		}
		served[e.ID] = true
		rel, ok := s.M.ViewRel(e)
		if !ok {
			return nil, fmt.Errorf("mvmaint: view %q is not materialized", name)
		}
		sources = append(sources, server.ViewSource{
			Name:   name,
			Schema: rel.Def.Schema,
			EqID:   e.ID,
			Rel:    rel,
		})
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("mvmaint: no non-assertion views to serve")
	}
	hub, err := server.NewHub(server.HubConfig{
		Views:            sources,
		Feed:             feed,
		Retain:           opts.Retain,
		SubscriberBuffer: opts.SubscriberBuffer,
	})
	if err != nil {
		if feed != nil {
			feed.Close()
		}
		return nil, err
	}
	sv := &Serving{Hub: hub, sys: s}
	s.M.SetWindowHook(hub.OnWindow)
	sv.Server = server.New(server.Config{
		Hub:  hub,
		Exec: sv.execStatement,
		Obs:  obs.Handler(nil, nil),
	})
	return sv, nil
}

// execStatement runs one DML statement through the maintained path,
// serialized: the pipeline is single-writer, and HTTP handlers are not.
func (sv *Serving) execStatement(stmt string) (server.ExecResult, error) {
	sv.execMu.Lock()
	defer sv.execMu.Unlock()
	out, err := sv.sys.Execute(stmt)
	if err != nil {
		return server.ExecResult{}, err
	}
	res := server.ExecResult{RolledBack: out.RolledBack}
	if out.Report != nil {
		res.LSN = out.Report.LSN
	}
	for _, v := range out.Violations {
		res.Violations = append(res.Violations, v.String())
	}
	return res, nil
}

// ExecuteTxn runs a pre-built transaction through the maintained path
// under the serving lock — the programmatic sibling of POST /txn for
// in-process writers (benchmarks, the shell) that share a Serving with
// HTTP traffic.
func (sv *Serving) ExecuteTxn(t *txn.Type, updates map[string]*delta.Delta) (*maintain.BatchReport, error) {
	sv.execMu.Lock()
	defer sv.execMu.Unlock()
	out, err := sv.sys.ExecuteTxn(t, updates)
	if err != nil {
		return nil, err
	}
	return out.Report, nil
}

// Close detaches the window hook and shuts the hub (and feed log) down.
func (sv *Serving) Close() error {
	sv.sys.M.SetWindowHook(nil)
	return sv.Hub.Close()
}
