package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/timebase"
)

// Thread is one worker's execution context: its clock handle, its
// statistics, the retry loop driving transaction attempts, and the pools
// that recycle its attempts and version nodes. A Thread must be used by a
// single goroutine.
type Thread struct {
	rt    *Runtime
	id    int
	clock timebase.Clock
	seq   uint64
	// index is the reusable object→entry map lent to transactions whose
	// access set outgrows the linear-scan fast path. Lazily allocated.
	index map[*Object]int

	// announced is the global epoch this thread read when its current
	// attempt began, or 0 while it runs no transaction. Other threads read
	// it in Runtime.tryAdvance, the only field they read while it runs.
	announced atomic.Uint64
	// epoch is the latest global epoch this thread has seen. It may lag
	// the global one, which only delays reuse.
	epoch uint64
	// depth counts nested Runs; only the outermost one announces.
	depth int
	// free is a finished attempt that never acquired an object: no other
	// thread ever saw it, so the next attempt reuses it at once.
	free *Tx
	// txs parks attempts that did acquire objects until no helper,
	// settler or contention manager can still hold them.
	txs limbo[Tx]
	// vfree is a candidate head that lost both settle CASes (never
	// visible); versions parks the nodes this thread cut off the history.
	vfree    *version
	versions limbo[version]
	stats    Stats
	_        [64]byte // keep each worker's stats off its neighbours' cache lines
}

// ID returns the worker id the thread was created with.
func (th *Thread) ID() int { return th.id }

// Clock exposes the thread's clock handle (useful for workloads that want
// timestamps consistent with the STM's time base).
func (th *Thread) Clock() timebase.Clock { return th.clock }

// Stats returns a copy of this thread's counters.
func (th *Thread) Stats() Stats { return th.stats }

// Run executes fn as an update-capable transaction, retrying on aborts
// until it commits. fn may be invoked many times and must confine its side
// effects to transactional reads and writes. A non-ErrAborted error from fn
// aborts the transaction and is returned unchanged.
//
// The *Tx handed to fn is valid only during that call: the thread recycles
// it for a later attempt, so fn must not retain it (or hand it to another
// goroutine) past its return.
func (th *Thread) Run(fn func(*Tx) error) error {
	return th.run(false, fn)
}

// RunReadOnly executes fn as a declared read-only transaction: writes are
// rejected, and reads may be served from older object versions, which lets
// the transaction commit without any validation (§2.2: a read-only
// transaction can commit iff it has used a consistent snapshot). As with
// Run, the *Tx must not be retained past fn's return.
func (th *Thread) RunReadOnly(fn func(*Tx) error) error {
	return th.run(true, fn)
}

// run is the retry loop. The outermost Run announces the global epoch at
// the start of every attempt and withdraws the announcement when it
// returns, so an idle thread never holds reclamation back; a nested Run
// executes as a flat transaction under the outer attempt's announcement.
func (th *Thread) run(readOnly bool, fn func(*Tx) error) error {
	outer := th.depth == 0
	th.depth++
	defer th.leave(outer)
	for attempt := 0; ; attempt++ {
		if outer {
			th.epoch = th.rt.epoch.Load()
			th.announced.Store(th.epoch)
		}
		tx := th.newTx(attempt, readOnly)
		err := fn(tx)
		switch {
		case err == nil:
			if err = tx.commit(); err == nil {
				th.stats.Commits++
				if tx.boxed {
					th.stats.BoxedCommits++
				}
				th.retireTx(tx)
				return nil
			}
		case err != ErrAborted:
			// Application-level failure: roll back and propagate.
			tx.abort()
			th.stats.UserAborts++
			th.retireTx(tx)
			return err
		default:
			tx.abort() // release any owned objects before retrying
		}
		th.stats.Aborts++
		cause := tx.cause
		th.retireTx(tx)
		if cause == CauseNone {
			th.stats.AbortExternal++
		}
		// Lazy time-base synchronization: a snapshot or validation abort
		// means some version compared as possibly-too-recent for this
		// thread's view of the clock. On time bases with a stale local view
		// (timebase.ShardedCounter), reconcile before retrying — the retry
		// then starts from the freshest cross-shard time, and the
		// reconciliation tick ages the conflicting version.
		if cause == CauseSnapshot || cause == CauseValidation {
			if r, ok := th.clock.(timebase.Reconciler); ok {
				r.Reconcile()
			}
		}
		if attempt > 2 {
			if outer {
				// Between attempts the thread holds nothing: yield
				// without holding the epoch back.
				th.announced.Store(0)
			}
			runtime.Gosched()
		}
	}
}

// leave ends a Run; the outermost one withdraws the epoch announcement.
func (th *Thread) leave(outer bool) {
	th.depth--
	if outer {
		th.announced.Store(0)
	}
}

// advanceEvery is how many attempts a thread lets pass between tries to
// advance the global epoch while it has retired nodes parked. Each try
// scans every registered thread, so it is rationed; it only has to keep
// the limbos below from filling while every thread is making progress.
const advanceEvery = 4

// Limbo capacities (powers of two). They bound the garbage one thread holds
// back while another is descheduled inside a transaction — on a two-core
// host a GC cycle or a preemption stalls a worker for hundreds of the other
// worker's attempts. Past them, retired nodes drop to the GC.
const (
	txLimbo      = 32
	versionLimbo = 256
)

// newTx starts an attempt on a recycled Tx when one is safe to reuse: the
// previous attempt if it never acquired an object, else the oldest parked
// Tx that every thread has since stopped seeing (see retireTx). The reused
// Tx keeps its grown entry slice and overflow write slots, so a
// steady-state attempt allocates nothing. The attempt starts with no entry
// index — small access sets are served by a linear scan, and only a
// transaction that outgrows smallAccessSet promotes to the Thread's
// reusable map (helpers never touch it).
func (th *Thread) newTx(attempt int, readOnly bool) *Tx {
	th.seq++
	if th.seq%advanceEvery == 0 && th.txs.n+th.versions.n > 0 {
		th.epoch = th.rt.tryAdvance()
	}
	tx := th.free
	if tx != nil {
		th.free = nil
	} else if tx = th.txs.pop(th.epoch); tx == nil {
		tx = &Tx{th: th, rt: th.rt}
		tx.entries = tx.inline[:0]
	}
	tx.id = th.seq<<16 | uint64(th.id&0xffff)
	tx.attempt = attempt
	tx.readOnly = readOnly
	tx.index = nil
	tx.update, tx.boxed, tx.closed = false, false, false
	tx.cause = CauseNone
	tx.wnext = 0
	tx.ops.Store(0)
	tx.ct.Store(nil)
	tx.ctClaim.Store(false)
	tx.status.Store(int32(StatusActive))
	tx.begin()
	return tx
}

// retireTx ends an attempt's life. An attempt that never acquired an
// object was never visible to another thread and becomes th.free. One that
// did first settles every object it acquired, so no locator names it any
// more; other threads may still hold it from an earlier load (a helper
// validating its access set, a settler copying its tentative value, a
// contention manager), so it waits in limbo for two epoch advances: by
// then every thread announced at the retirement epoch has finished that
// attempt. The epoch is read after the settles, never from the cached view.
func (th *Thread) retireTx(tx *Tx) {
	if !tx.update {
		th.free = tx
		return
	}
	for i := range tx.entries {
		if e := &tx.entries[i]; e.written {
			e.obj.settle(th)
		}
	}
	th.txs.push(tx, th.rt.epoch.Load()+2, txLimbo)
}

// newVersion returns a node for settle to build a head in: the thread's
// unpublished candidate, else a cut-off node no thread can reach any more,
// else a fresh one.
func (th *Thread) newVersion() *version {
	if v := th.vfree; v != nil {
		th.vfree = nil
		return v
	}
	if v := th.versions.pop(th.epoch); v != nil {
		v.fixedUB.Store(nil)
		return v
	}
	return new(version)
}

// putVersion takes back a candidate head that was never published.
func (th *Thread) putVersion(v *version) { th.vfree = v }

// retireVersion parks a node trim cut off the history. It waits one epoch
// longer than a Tx: besides the threads that walked the chain, a helper
// can reach it through the access set of a committing Tx it loaded, and
// that Tx's owner may have announced one epoch before the helper did.
func (th *Thread) retireVersion(v *version) {
	th.versions.push(v, th.rt.epoch.Load()+3, versionLimbo)
}

// limbo is a bounded FIFO of retired nodes, each stamped with the global
// epoch from which it may be reused.
type limbo[T any] struct {
	ring    []retired[T]
	head, n int
}

type retired[T any] struct {
	p       *T
	reuseAt uint64
}

// push parks p. A full limbo drops p to the GC instead: a thread stalled
// inside a transaction holds the epoch back, and the others must not pile
// up garbage behind it. capacity must be a power of two.
func (l *limbo[T]) push(p *T, reuseAt uint64, capacity int) {
	if l.ring == nil {
		l.ring = make([]retired[T], capacity)
	}
	if l.n == len(l.ring) {
		return
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = retired[T]{p: p, reuseAt: reuseAt}
	l.n++
}

// pop returns the oldest parked node if the epoch has reached its stamp.
func (l *limbo[T]) pop(epoch uint64) *T {
	if !l.ready(epoch) {
		return nil
	}
	r := &l.ring[l.head]
	p := r.p
	r.p = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return p
}

func (l *limbo[T]) ready(epoch uint64) bool {
	return l.n > 0 && l.ring[l.head].reuseAt <= epoch
}

// help completes another transaction's two-phase commit with this thread's
// clock (Algorithm 3 line 13).
func (th *Thread) help(w *Tx) {
	th.stats.Helps++
	w.finishCommit(th.clock)
}
