package serve

import (
	"container/list"
	"sync"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/sweep"
	"github.com/edsec/edattack/internal/telemetry"
)

// topoEntry bundles the expensive per-topology state the daemon keeps warm
// across requests: the parsed network, its dispatch model, the attacker
// knowledge built from the static-rating convention, the warm-basis cache
// seeding repeat attacks, and the sweep Precomp. The dispatch model
// warm-starts in place and is not safe for concurrent solves, so attack and
// evaluation jobs on one entry serialize on mu; sweep jobs never touch the
// model (they use the lock-free proportional dispatch) and only read the
// Precomp, which is immutable once built.
type topoEntry struct {
	name string
	net  *grid.Network

	mu      sync.Mutex
	model   *dispatch.Model
	statics *core.Knowledge
	warm    *core.WarmCache

	sweepOnce sync.Once
	sweepPC   *sweep.Precomp
	sweepErr  error
}

// knowledge returns the entry's attacker knowledge: the cached
// static-rating bundle when the request carries no true_dlr, else an
// ephemeral Knowledge over the same model. Callers hold entry.mu.
func (e *topoEntry) knowledge(trueDLR map[int]float64) (*core.Knowledge, error) {
	if len(trueDLR) == 0 {
		return e.statics, nil
	}
	return core.NewKnowledge(e.model, trueDLR)
}

// topoCache is the LRU of resident topoEntry bundles, keyed by case name.
type topoCache struct {
	metrics *telemetry.Registry

	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

func newTopoCache(cap int, metrics *telemetry.Registry) *topoCache {
	if cap < 1 {
		cap = 1
	}
	return &topoCache{
		metrics: metrics,
		cap:     cap,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the resident bundle for the named case, building (and, at
// capacity, evicting least-recently-used) as needed. The build runs outside
// the cache lock — two first-sight requests may both build; the loser's
// bundle is dropped and the winner's kept, so later requests share one
// warm-basis cache.
func (tc *topoCache) get(name string) (*topoEntry, error) {
	tc.mu.Lock()
	if el, ok := tc.entries[name]; ok {
		tc.order.MoveToFront(el)
		tc.mu.Unlock()
		tc.counter("serve_topo_hits_total")
		return el.Value.(*topoEntry), nil
	}
	tc.mu.Unlock()
	tc.counter("serve_topo_misses_total")

	entry, err := buildTopoEntry(name, tc.metrics)
	if err != nil {
		return nil, err
	}

	tc.mu.Lock()
	defer tc.mu.Unlock()
	if el, ok := tc.entries[name]; ok {
		// Lost the build race; use the resident bundle.
		tc.order.MoveToFront(el)
		return el.Value.(*topoEntry), nil
	}
	tc.entries[name] = tc.order.PushFront(entry)
	for tc.order.Len() > tc.cap {
		back := tc.order.Back()
		tc.order.Remove(back)
		delete(tc.entries, back.Value.(*topoEntry).name)
		tc.counter("serve_topo_evictions_total")
	}
	tc.gauge()
	return entry, nil
}

// buildTopoEntry does the cold-start work: parse the case, build the
// dispatch model, and seed attacker knowledge with the static ratings of
// every DLR line (the paper's convention and the CLI default).
func buildTopoEntry(name string, metrics *telemetry.Registry) (*topoEntry, error) {
	net, err := cases.Load(name)
	if err != nil {
		return nil, err
	}
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return nil, err
	}
	// Pin a workspace to the resident model for its whole cache lifetime:
	// evaluation jobs (and the sequential phases of attack jobs) then reuse
	// one set of solver buffers across every request that hits this
	// topology. The entry lock already serializes model-touching solves, so
	// single-owner workspace discipline holds; core's per-task checkouts
	// save and restore this workspace around their own.
	model.Workspace = lp.NewWorkspace()
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	statics, err := core.NewKnowledge(model, ud)
	if err != nil {
		return nil, err
	}
	warm := core.NewWarmCache()
	warm.Metrics = metrics
	return &topoEntry{
		name:    name,
		net:     net,
		model:   model,
		statics: statics,
		warm:    warm,
	}, nil
}

// precomp returns the entry's sweep Precomp, building it on the entry's
// first sweep from the dispatch model's PTDF — the same dcflow.PTDF that
// sweep.Precompute factors, so no second factorization runs and outcomes
// are bit-identical. The first call counts sweep_cache_misses_total, every
// later one sweep_cache_hits_total; an evicted entry takes its Precomp with
// it. The model's PTDF is immutable, so no entry lock is needed.
func (tc *topoCache) precomp(e *topoEntry) (*sweep.Precomp, error) {
	built := false
	e.sweepOnce.Do(func() {
		built = true
		e.sweepPC, e.sweepErr = sweep.PrecomputeFromPTDF(e.net, e.model.PTDF())
	})
	if built {
		tc.counter("sweep_cache_misses_total")
	} else {
		tc.counter("sweep_cache_hits_total")
	}
	return e.sweepPC, e.sweepErr
}

func (tc *topoCache) len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.order.Len()
}

// warmBases sums the stored root bases across resident topologies.
func (tc *topoCache) warmBases() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	total := 0
	for el := tc.order.Front(); el != nil; el = el.Next() {
		total += el.Value.(*topoEntry).warm.Len()
	}
	return total
}

func (tc *topoCache) counter(name string) {
	if tc.metrics != nil {
		tc.metrics.Counter(name).Inc()
	}
}

func (tc *topoCache) gauge() {
	if tc.metrics != nil {
		tc.metrics.Gauge("serve_topologies").Set(float64(tc.order.Len()))
	}
}
