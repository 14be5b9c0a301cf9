package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/timebase"
)

// DefaultMaxVersions is the number of committed versions kept per object
// when the configuration does not specify one. A short history is enough
// for read-only transactions to dodge most concurrent updates without
// holding the whole past alive.
const DefaultMaxVersions = 4

// Config parameterizes a Runtime.
type Config struct {
	// TimeBase supplies timestamps. Required.
	TimeBase timebase.TimeBase

	// Manager arbitrates write-write conflicts. Defaults to an escalating
	// manager that waits a few rounds and then aborts the enemy.
	Manager ContentionManager

	// MaxVersions is the number of committed versions kept per object
	// (≥ 1). 1 yields a single-version STM in which read-only transactions
	// lose their abort-freedom — the §4.3 discussion's configuration.
	MaxVersions int

	// DisableExtension turns off validity-range extension except for the
	// implicit one at commit (TL2's behaviour, §1.2) — an ablation knob.
	DisableExtension bool

	// SnapshotIsolation weakens update transactions from linearizability to
	// snapshot isolation, following the authors' companion work the paper
	// cites as [10] (Riegel, Fetzer, Felber, "Snapshot isolation for
	// software transactional memory", TRANSACT 2006): commits no longer
	// extend the read snapshot to the commit time, so read-write conflicts
	// are tolerated (write skew becomes possible) while write-write
	// conflicts are still prevented by object ownership. Transactions read
	// a consistent snapshot either way.
	SnapshotIsolation bool
}

// Runtime is an instantiated transactional memory: a time base, a conflict
// policy, and version-management settings shared by a set of worker
// threads. Create per-worker Threads with Thread; aggregate statistics with
// Stats after the workers have quiesced.
//
// The runtime also keeps the global epoch of its memory reclamation
// (epoch-based, after Fraser 2004): threads recycle their finished attempts
// and the version nodes cut off object histories, and an epoch stamp tells
// them when no other thread can still hold such a node (see
// Thread.retireTx and Thread.retireVersion).
type Runtime struct {
	tb          timebase.TimeBase
	cm          ContentionManager
	maxVersions int
	disableExt  bool
	si          bool

	// epoch is the global reclamation epoch. It starts at 1, because a
	// thread's announcement of 0 means "in no transaction".
	epoch atomic.Uint64

	mu sync.Mutex // serializes registrations
	// threads is the thread registry, scanned lock-free by tryAdvance.
	// Threads are never removed; idle ones announce 0.
	threads atomic.Pointer[[]*Thread]
}

// NewRuntime validates the configuration and builds a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.TimeBase == nil {
		return nil, fmt.Errorf("core: Config.TimeBase is required")
	}
	if cfg.MaxVersions < 0 {
		return nil, fmt.Errorf("core: MaxVersions must be ≥ 1 (or 0 for default), got %d", cfg.MaxVersions)
	}
	if cfg.MaxVersions == 0 {
		cfg.MaxVersions = DefaultMaxVersions
	}
	if cfg.Manager == nil {
		cfg.Manager = defaultManager{}
	}
	rt := &Runtime{
		tb:          cfg.TimeBase,
		cm:          cfg.Manager,
		maxVersions: cfg.MaxVersions,
		disableExt:  cfg.DisableExtension,
		si:          cfg.SnapshotIsolation,
	}
	rt.epoch.Store(1)
	rt.threads.Store(new([]*Thread))
	return rt, nil
}

// MustRuntime is NewRuntime for static configurations; it panics on error.
func MustRuntime(cfg Config) *Runtime {
	rt, err := NewRuntime(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// TimeBase returns the runtime's time base.
func (rt *Runtime) TimeBase() timebase.TimeBase { return rt.tb }

// MaxVersions returns the per-object history depth.
func (rt *Runtime) MaxVersions() int { return rt.maxVersions }

// SnapshotIsolation reports whether update transactions commit under
// snapshot isolation instead of linearizability.
func (rt *Runtime) SnapshotIsolation() bool { return rt.si }

// Thread creates the execution context for one worker. id selects the
// worker's clock (for per-node time bases); ids should be dense indices
// 0..N−1. Threads are not safe for concurrent use; create one per
// goroutine.
func (rt *Runtime) Thread(id int) *Thread {
	th := &Thread{rt: rt, id: id, clock: rt.tb.Clock(id)}
	rt.mu.Lock()
	// Appending in place is safe for concurrent scans: a reader holding
	// the old slice header never looks past its length.
	threads := append(*rt.threads.Load(), th)
	rt.threads.Store(&threads)
	rt.mu.Unlock()
	return th
}

// tryAdvance moves the global epoch one step if every thread that has
// announced an epoch announced the current one, and returns the epoch it
// leaves in place. After two steps past the epoch at which a node was
// unlinked, every thread that could have loaded it has finished the
// attempt in which it did.
func (rt *Runtime) tryAdvance() uint64 {
	e := rt.epoch.Load()
	for _, th := range *rt.threads.Load() {
		if a := th.announced.Load(); a != 0 && a != e {
			return e
		}
	}
	if rt.epoch.CompareAndSwap(e, e+1) {
		return e + 1
	}
	return rt.epoch.Load()
}

// Stats sums the per-thread counters. Call it only while no thread is
// executing transactions (the per-thread counters are intentionally
// unsynchronized so that collecting statistics cannot perturb the
// scalability the benchmarks measure).
func (rt *Runtime) Stats() Stats {
	var total Stats
	for _, th := range *rt.threads.Load() {
		total.add(&th.stats)
	}
	return total
}

// defaultManager waits a few rounds for the enemy to finish, then aborts it.
type defaultManager struct{}

func (defaultManager) Name() string { return "Default" }

func (defaultManager) Resolve(us, enemy TxInfo, n int) Decision {
	if n < 3 {
		return Wait
	}
	return AbortEnemy
}
