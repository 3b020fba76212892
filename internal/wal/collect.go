package wal

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/storage"
	"repro/internal/value"
)

// Collector stages base-relation mutations between group commits. It is
// installed as the store's mutation hook; view relations (anything not
// in the catalog it was built from) are filtered out, so only base
// deltas reach the log. The maintenance worker pool applies view
// mutations concurrently, hence the mutex.
type Collector struct {
	mu      sync.Mutex
	schemas map[string]*catalog.Schema
	staged  map[string]*delta.Delta
	// spare is the map handed out by the previous Drain, recycled (keys
	// kept, change slices truncated) at the next Drain. The double
	// buffer gives drained deltas exactly one window of validity, which
	// covers the synchronous coalesce+encode every consumer performs.
	spare     map[string]*delta.Delta
	suspended bool
}

// NewCollector builds a collector recognizing exactly the base
// relations registered in cat at construction time.
func NewCollector(cat *catalog.Catalog) *Collector {
	schemas := map[string]*catalog.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = cat.MustGet(name).Schema
	}
	return &Collector{schemas: schemas, staged: map[string]*delta.Delta{}}
}

// Schema resolves a base relation's schema; it is the SchemaSource used
// to decode windows written through this collector.
func (c *Collector) Schema(rel string) (*catalog.Schema, bool) {
	s, ok := c.schemas[rel]
	return s, ok
}

// Suspend makes Hook a no-op until Resume: during a pipelined window
// the commit record is built from the already-coalesced net deltas, and
// staging the same base applies again would log the window twice.
// Deltas already staged stay staged for the next drain.
func (c *Collector) Suspend() {
	c.mu.Lock()
	c.suspended = true
	c.mu.Unlock()
}

// Resume re-arms Hook staging after a pipelined window.
func (c *Collector) Resume() {
	c.mu.Lock()
	c.suspended = false
	c.mu.Unlock()
}

// Hook is the storage.MutationHook staging every base-relation batch.
func (c *Collector) Hook(r *storage.Relation, batch []storage.Mutation) {
	s, ok := c.schemas[r.Def.Name]
	if !ok {
		return // a view's backing relation; views are derived, not logged
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.suspended {
		return
	}
	d, ok := c.staged[r.Def.Name]
	if !ok {
		d = delta.New(s)
		c.staged[r.Def.Name] = d
	}
	if value.EpochChecksEnabled() {
		for _, m := range batch {
			value.CheckEpoch(m.Old)
			value.CheckEpoch(m.New)
		}
	}
	for _, m := range batch {
		count := m.Count
		if count == 0 {
			count = 1
		}
		switch {
		case m.IsInsert():
			d.Insert(m.New, count)
		case m.IsDelete():
			d.Delete(m.Old, count)
		case m.IsModify():
			d.Modify(m.Old, m.New, count)
		}
	}
}

// Drain returns the staged deltas and resets the stage. The caller
// coalesces them, so changes that cancel within the stage are never
// logged.
//
// The returned map is recycled: it is valid until the NEXT Drain, at
// which point its deltas are truncated in place for restaging. The
// map may contain relations whose deltas are empty this window
// (recycled keys); coalescing skips them.
func (c *Collector) Drain() map[string]*delta.Delta {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.staged
	next := c.spare
	if next == nil {
		next = map[string]*delta.Delta{}
	}
	for _, d := range next {
		d.Changes = d.Changes[:0]
	}
	c.staged = next
	c.spare = out
	return out
}
