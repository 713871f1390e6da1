package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pmsf"
)

// Registry errors, matched by the handlers to pick status codes.
var (
	ErrGraphExists   = errors.New("serve: graph name already registered")
	ErrGraphNotFound = errors.New("serve: graph not found")
	ErrRegistryFull  = errors.New("serve: graph registry byte cap exceeded")
	ErrPatchInFlight = errors.New("serve: another edge patch is in flight for this graph")
)

// GraphInfo is the public description of one registered graph.
type GraphInfo struct {
	Name     string `json:"name"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Version  uint64 `json:"version"` // changes on every register and patch commit
	Bytes    int64  `json:"bytes"`   // estimated resident size
	Refs     int    `json:"refs"`    // queries holding the graph right now
	Removing bool   `json:"removing,omitempty"`
}

// graphEntry is one registered graph plus its refcount. The refcount
// protects in-flight queries from DELETE: removal is deferred until the
// last lease is released.
type graphEntry struct {
	name    string
	g       *pmsf.Graph
	version uint64 // Registry.version when g was published
	bytes   int64
	refs    int
	removed bool // unregistered; free when refs hits zero

	// Dynamic-MSF state, nil until the first PATCH. dyn maintains the
	// forest across patches; forest is the snapshot published together
	// with g (queries answer from it without an engine run). Entries are
	// swapped atomically under r.mu — leases taken before a patch keep
	// the previous immutable graph+forest pair.
	dyn      *pmsf.Dynamic
	forest   *pmsf.Forest
	patching bool // one PATCH at a time per graph
}

// Registry is the named, refcounted, size-capped in-memory graph store.
// Registration is explicit (no eviction): when the byte cap would be
// exceeded the upload is refused and the client must DELETE something
// first — a service holding graphs for millions of queries must never
// silently drop one mid-traffic.
//
// Each published graph carries a version from one registry-wide
// counter, so no two snapshots ever share one, not even a graph deleted
// and registered again under its name. A cached result is keyed by the
// version it was computed on (CacheKey), which is what keeps a job
// finishing late on an older snapshot from answering for a newer one.
type Registry struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	version  uint64 // last version handed out
	graphs   map[string]*graphEntry
	metrics  *Metrics
}

// NewRegistry returns an empty registry capped at capBytes (<= 0 means
// unlimited).
func NewRegistry(capBytes int64, m *Metrics) *Registry {
	return &Registry{capBytes: capBytes, graphs: make(map[string]*graphEntry), metrics: m}
}

// GraphBytes estimates the resident size of a graph: the edge records
// plus the struct header. It is the unit of the registry cap and of the
// per-upload limit.
func GraphBytes(g *pmsf.Graph) int64 {
	return int64(len(g.Edges))*24 + 64
}

// Register stores g under name. The graph must already be validated.
func (r *Registry) Register(name string, g *pmsf.Graph) (GraphInfo, error) {
	bytes := GraphBytes(g)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	if r.capBytes > 0 && r.bytes+bytes > r.capBytes {
		return GraphInfo{}, fmt.Errorf("%w: %d + %d > %d (delete a graph first)",
			ErrRegistryFull, r.bytes, bytes, r.capBytes)
	}
	r.version++
	e := &graphEntry{name: name, g: g, version: r.version, bytes: bytes}
	r.graphs[name] = e
	r.bytes += bytes
	r.publish()
	return r.infoLocked(e), nil
}

// Lease is a refcounted view of a registered graph. Release must be
// called exactly once when the query is done with it; Release is
// idempotent per Lease.
type Lease struct {
	Graph   *pmsf.Graph
	Name    string
	Version uint64
	// Forest is the dynamically maintained MSF of Graph, or nil if the
	// graph has never been patched. When set, MSF queries are answered
	// from it directly (no engine run); it is immutable and always
	// consistent with Graph (same snapshot).
	Forest *pmsf.Forest

	r        *Registry
	entry    *graphEntry
	released bool
	mu       sync.Mutex
}

// Acquire takes a lease on the named graph, pinning it against removal.
func (r *Registry) Acquire(name string) (*Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok || e.removed {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	e.refs++
	return &Lease{Graph: e.g, Name: name, Version: e.version, Forest: e.forest, r: r, entry: e}, nil
}

// Release returns the lease. If the graph was removed while leased, the
// last release frees its bytes.
func (l *Lease) Release() {
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	l.mu.Unlock()

	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	l.entry.refs--
	if l.entry.removed && l.entry.refs == 0 {
		l.r.freeLocked(l.entry)
	}
}

// Current reports whether the lease's snapshot is still the published
// version of its graph: not patched since, and not removed.
func (l *Lease) Current() bool {
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	return !l.entry.removed && l.entry.version == l.Version
}

// Remove unregisters the named graph. If queries hold leases the entry
// stays resident (and keeps counting against the cap) until the last
// lease is released; new Acquires fail immediately.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok || e.removed {
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	e.removed = true
	delete(r.graphs, name)
	if e.refs == 0 {
		r.freeLocked(e)
	}
	return nil
}

// freeLocked drops the entry's bytes from the running total. Caller
// holds r.mu.
func (r *Registry) freeLocked(e *graphEntry) {
	r.bytes -= e.bytes
	e.g = nil
	r.publish()
}

// Get returns the info of one registered graph.
func (r *Registry) Get(name string) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok || e.removed {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return r.infoLocked(e), nil
}

// List returns every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, r.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bytes returns the current resident byte total (including removed-but-
// leased entries).
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

func (r *Registry) infoLocked(e *graphEntry) GraphInfo {
	return GraphInfo{
		Name:     e.name,
		N:        e.g.N,
		M:        len(e.g.Edges),
		Version:  e.version,
		Bytes:    e.bytes,
		Refs:     e.refs,
		Removing: e.removed,
	}
}

// PatchGuard is an exclusive in-flight edge patch on one graph. Exactly
// one of Commit or Abort must be called. While held, the entry is
// pinned (like a lease) and other patches on the same graph are refused;
// reads and queries proceed against the pre-patch snapshot.
type PatchGuard struct {
	// Graph and Dyn are the pre-patch state: the current snapshot and
	// the maintained handle (nil before the first patch — the caller
	// seeds one and passes it to Commit).
	Graph *pmsf.Graph
	Dyn   *pmsf.Dynamic

	r     *Registry
	entry *graphEntry
	done  bool
}

// BeginPatch opens an exclusive patch on the named graph. addedBytes is
// the worst-case byte growth of the batch (deletions only shrink), used
// to refuse patches that would blow the registry cap before any state
// is touched.
func (r *Registry) BeginPatch(name string, addedBytes int64) (*PatchGuard, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok || e.removed {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	if e.patching {
		return nil, fmt.Errorf("%w: %q", ErrPatchInFlight, name)
	}
	if r.capBytes > 0 && r.bytes+addedBytes > r.capBytes {
		return nil, fmt.Errorf("%w: %d + %d > %d (delete a graph first)",
			ErrRegistryFull, r.bytes, addedBytes, r.capBytes)
	}
	e.patching = true
	e.refs++
	return &PatchGuard{Graph: e.g, Dyn: e.dyn, r: r, entry: e}, nil
}

// Commit publishes the patched snapshot: the new graph, its maintained
// forest, and the dynamic handle that produced them. Leases taken
// before the commit keep the previous graph; new leases see the new
// snapshot and its forest under a new version. Returns the updated
// info.
func (g *PatchGuard) Commit(newG *pmsf.Graph, f *pmsf.Forest, dyn *pmsf.Dynamic) GraphInfo {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	if g.done {
		return g.r.infoLocked(g.entry)
	}
	g.done = true
	e := g.entry
	newBytes := GraphBytes(newG)
	g.r.bytes += newBytes - e.bytes
	e.bytes = newBytes
	e.g = newG
	g.r.version++
	e.version = g.r.version
	e.forest = f
	e.dyn = dyn
	info := g.r.infoLocked(e)
	g.releaseLocked()
	g.r.publish()
	return info
}

// Abort releases the patch without publishing anything.
func (g *PatchGuard) Abort() {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	if g.done {
		return
	}
	g.done = true
	g.releaseLocked()
}

// Reset releases the patch AND discards the entry's dynamic handle (the
// published graph and forest are untouched). Used when the handle
// reported itself broken: the next patch reseeds a fresh one from the
// published snapshot instead of hitting the poisoned handle forever.
func (g *PatchGuard) Reset() {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	if g.done {
		return
	}
	g.done = true
	g.entry.dyn = nil
	g.releaseLocked()
}

// releaseLocked clears the patch latch and the pin. Caller holds r.mu.
func (g *PatchGuard) releaseLocked() {
	e := g.entry
	e.patching = false
	e.refs--
	if e.removed && e.refs == 0 {
		g.r.freeLocked(e)
	}
}

// publish pushes registry gauges. Caller holds r.mu.
func (r *Registry) publish() {
	if r.metrics == nil {
		return
	}
	r.metrics.GraphCount.Set(int64(len(r.graphs)))
	r.metrics.GraphBytes.Set(r.bytes)
}
