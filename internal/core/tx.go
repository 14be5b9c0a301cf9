package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/timebase"
	"repro/internal/val"
)

// Tx is one attempt of a transaction executing the Real-Time Lazy Snapshot
// Algorithm (LSA-RT, Algorithm 2). A Tx is bound to the Thread that created
// it and must only be used from that thread's goroutine; other threads
// interact with it exclusively through its atomic status, commit time, and —
// once it has left the active state — its frozen access set.
//
// The transaction incrementally constructs a consistent snapshot: the
// validity range [lower, upper] is the intersection of the validity ranges
// of all object versions accessed so far, and every access re-checks that
// the intersection is non-empty. Reads are invisible; writes register the
// transaction in the object's locator.
//
// A Tx lives only for one attempt, but its memory is recycled by its
// Thread for later attempts once no other thread can still hold it (see
// Thread.retireTx), so it must not be retained past the Run callback.
type Tx struct {
	th       *Thread
	rt       *Runtime
	id       uint64
	attempt  int
	readOnly bool

	// start is ⌊T.R⌋ at begin: the transaction cannot execute in the past.
	start timebase.Timestamp
	// lower, upper are the current bounds of T.R. Owner-only.
	lower, upper timebase.Timestamp
	// entries is T.O, the set of accessed (object, version) pairs. Appended
	// only while active; frozen (and readable by helpers) once the status
	// CAS to committing is observed.
	entries []entry
	// index maps objects to their entry once the access set outgrows the
	// linear-scan fast path (see lookup). nil for small transactions; when
	// non-nil it is the Thread's reusable map. Owner-only; never examined
	// by helpers.
	index map[*Object]int
	// update records whether the transaction wrote anything.
	update bool
	// boxed records whether any write took the escape hatch (a non-numeric
	// payload) — the per-commit boxing telemetry behind Stats.BoxedCommits.
	boxed bool
	// closed marks that extension is pointless: some version in the read
	// set has been superseded, so the upper bound can never grow again
	// (the paper's "closed" optimization, §2.2).
	closed bool
	// cause records why the owner aborted the transaction; external aborts
	// leave it CauseNone and are classified by the runner.
	cause AbortCause

	// ops counts opened objects; read by contention managers.
	ops atomic.Int32
	// status is the transaction state machine; all transitions are CAS.
	status atomic.Int32
	// ct is T.CT, the commit time. CASed from nil exactly once, by the
	// owner or by any helper (Algorithm 2 line 42).
	ct atomic.Pointer[timebase.Timestamp]

	// ctClaim elects the single thread allowed to publish ctBuf as the
	// commit time. The winner fills ctBuf and CASes its address into ct, so
	// the common (uncontended) commit fixes its timestamp without
	// allocating; losers fall back to the classic allocate-and-CAS, which
	// keeps ensureCT lock-free — nobody ever waits for the claim winner.
	ctClaim atomic.Bool
	// ctBuf is the inline commit-timestamp buffer behind ct. Written only
	// by the ctClaim winner, before the ct CAS publishes it.
	ctBuf timebase.Timestamp

	// inline is the initial backing array of entries: the access set of a
	// small transaction lives inside the Tx. Helpers may validate the
	// frozen array after the owner moved on to a new attempt; the owner
	// overwrites it only when the Tx is reused, which the reclamation epoch
	// delays until no helper can still be reading it. A larger access set
	// moves to a heap array that the Tx keeps for its later attempts.
	inline [smallAccessSet]entry
	// wnext/wslots are the tentative version + locator pairs handed out by
	// newWriteSlot: the first smallWriteSlots acquisitions of an attempt
	// publish locators that live inside the Tx, later ones use the heap
	// slots in wmore, which the Tx keeps across reuse. Published locators
	// stay readable by other threads after the attempt ends, under the
	// same epoch rule as inline.
	wnext  int
	wslots [smallWriteSlots]wslot
	wmore  []*wslot
}

type entry struct {
	obj     *Object
	ver     *version
	written bool
}

// wslot is one write acquisition: the tentative version and the locator
// that registers it. Grouped so an overflow slot is a single allocation.
type wslot struct {
	ver version
	loc locator
}

// Status returns the transaction's current state.
func (tx *Tx) Status() Status { return Status(tx.status.Load()) }

// CT returns the commit time, or the zero timestamp if none has been fixed.
func (tx *Tx) CT() timebase.Timestamp {
	if p := tx.ct.Load(); p != nil {
		return *p
	}
	return timebase.Zero
}

// ID implements TxInfo.
func (tx *Tx) ID() uint64 { return tx.id }

// Start implements TxInfo.
func (tx *Tx) Start() timebase.Timestamp { return tx.start }

// Ops implements TxInfo.
func (tx *Tx) Ops() int { return int(tx.ops.Load()) }

// Attempt implements TxInfo.
func (tx *Tx) Attempt() int { return tx.attempt }

// ReadOnly reports whether the transaction was started with RunReadOnly.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// begin initializes the attempt (Algorithm 2, Start).
func (tx *Tx) begin() {
	tx.entries = tx.entries[:0]
	tx.start = tx.th.clock.GetTime()
	tx.lower = tx.start
	tx.upper = timebase.Inf
}

// effLimit returns the timestamp passed as t into getPrelimUB: the current
// upper bound, clamped to "now" while it is still infinite. The clamp
// implements the §1.1 rule that accessing a most-recent version bounds the
// snapshot at the current time, not ∞ — without it, two sequential reads of
// head versions could miss a supersession in between.
func (tx *Tx) effLimit() timebase.Timestamp {
	if tx.upper.IsInf() {
		return tx.th.clock.GetTime()
	}
	return tx.upper
}

// errFromStatus translates a non-active status into the API error.
func (tx *Tx) errFromStatus() error {
	if tx.Status() == StatusAborted {
		return ErrAborted
	}
	return ErrNotActive
}

// selfAbort aborts the transaction from its own thread, recording the cause.
func (tx *Tx) selfAbort(cause AbortCause) {
	tx.cause = cause
	tx.abort()
}

// abort drives the transaction to the aborted state unless it has already
// committed (Algorithm 2 lines 53–59). Idempotent and callable by any
// thread.
func (tx *Tx) abort() {
	if !tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		tx.status.CompareAndSwap(int32(StatusCommitting), int32(StatusAborted))
	}
}

// abortExternal aborts an active enemy transaction on behalf of the
// contention manager. It only targets the active state: committing enemies
// are helped, not killed.
func (tx *Tx) abortExternal() bool {
	return tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted))
}

// Read opens the object in read mode and returns the selected version's
// value as `any` — the generic escape-hatch view of ReadValue (numeric-lane
// payloads are boxed here; lane-aware callers use ReadValue or ReadInt).
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadInt opens the object in read mode through the unboxed numeric lane.
// ok reports whether the value currently lives in the lane; when false the
// caller falls back to Read.
func (tx *Tx) ReadInt(o *Object) (n int64, ok bool, err error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return 0, false, err
	}
	n, ok = v.AsInt64()
	return n, ok, nil
}

// ReadValue opens the object in read mode (Algorithm 2, Open with m = read)
// and returns the value of the version selected into the snapshot.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	if tx.Status() != StatusActive {
		return val.Value{}, tx.errFromStatus()
	}
	if idx, ok := tx.lookup(o); ok {
		return tx.entries[idx].ver.value, nil
	}
	v, ok := tx.getVersion(o)
	if !ok {
		tx.selfAbort(CauseSnapshot)
		tx.th.stats.AbortSnapshot++
		return val.Value{}, ErrAborted
	}
	// Lines 28–30: intersect T.R with the version's validity range and
	// abort if the snapshot became (possibly) inconsistent.
	tx.lower = timebase.Max(tx.lower, v.validFrom)
	limit := tx.effLimit()
	ub := prelimUB(o, v, limit, tx, tx.th.clock)
	tx.upper = timebase.Min(tx.upper, ub)
	if tx.lower.PossiblyLater(tx.upper) {
		tx.selfAbort(CauseSnapshot)
		tx.th.stats.AbortSnapshot++
		return val.Value{}, ErrAborted
	}
	tx.addEntry(o, v, false)
	return v.value, nil
}

// Write opens the object in write mode and installs v as the tentative new
// value — the generic escape-hatch view of WriteValue (dynamic int/int64
// payloads are canonicalized back into the numeric lane).
func (tx *Tx) Write(o *Object, v any) error {
	return tx.WriteValue(o, val.OfAny(v))
}

// WriteInt opens the object in write mode through the unboxed numeric lane:
// no part of the write boxes. Lane values have canonical dynamic type int.
func (tx *Tx) WriteInt(o *Object, n int64) error {
	return tx.WriteValue(o, val.OfInt(int(n)))
}

// WriteValue opens the object in write mode (Algorithm 2, Open with m =
// write) and installs v as the transaction's tentative new value.
func (tx *Tx) WriteValue(o *Object, v val.Value) error {
	if tx.Status() != StatusActive {
		return tx.errFromStatus()
	}
	if tx.readOnly {
		return ErrReadOnly
	}
	if v.Kind() == val.KindBoxed {
		tx.boxed = true
	}
	if idx, ok := tx.lookup(o); ok && tx.entries[idx].written {
		// Already own the object: update the tentative version in place.
		tx.entries[idx].ver.value = v
		return nil
	}
	// Acquisition loop (lines 11–21): become the object's registered writer,
	// resolving conflicts through helping and the contention manager. The
	// tentative version and its locator are taken from the Tx's write slots
	// once and reused across CAS failures — until the CAS succeeds they are
	// invisible to every other thread. A loop that gives up aborts the
	// attempt, so a slot it leaves unpublished is simply not handed out
	// again before the Tx is reused.
	var tent *version
	var nloc *locator
	for n := 0; ; n++ {
		if tx.Status() != StatusActive {
			return tx.errFromStatus()
		}
		loc := o.settle(tx.th)
		if w := loc.writer; w != nil && w != tx {
			switch w.Status() {
			case StatusCommitting:
				tx.th.help(w)
			case StatusActive:
				switch tx.rt.cm.Resolve(tx, w, n) {
				case AbortEnemy:
					if w.abortExternal() {
						tx.th.stats.EnemyAborts++
					}
				case AbortSelf:
					tx.selfAbort(CauseConflict)
					tx.th.stats.AbortConflict++
					return ErrAborted
				default:
					backoff(n)
				}
			default:
				// Terminal writer: the next settled() call resolves it.
			}
			continue
		}
		base := loc.cur
		if tent == nil {
			tent, nloc = tx.newWriteSlot()
			tent.value = v
			nloc.writer, nloc.tent = tx, tent
		}
		nloc.cur = base
		if !o.loc.CompareAndSwap(loc, nloc) {
			continue
		}
		// Record the acquisition before anything can abort the attempt:
		// retireTx settles exactly the written entries, and no locator may
		// still name the Tx when it is recycled.
		tx.update = true
		tx.addEntry(o, tent, true)
		// Line 22: if the base version is possibly more recent than the
		// snapshot's upper bound, extending may still save the transaction.
		if base.validFrom.PossiblyLater(tx.upper) {
			tx.extend()
		}
		// Lines 28–30. The tentative version's preliminary upper bound is
		// the caller's limit (we are the registered, still-active writer).
		tx.lower = timebase.Max(tx.lower, base.validFrom)
		tx.upper = timebase.Min(tx.upper, tx.effLimit())
		if tx.lower.PossiblyLater(tx.upper) {
			tx.selfAbort(CauseSnapshot)
			tx.th.stats.AbortSnapshot++
			return ErrAborted
		}
		return nil
	}
}

// smallAccessSet is the access-set size up to which lookup scans the
// entries slice instead of maintaining a map. Most transactions in the
// paper's workloads touch a handful of objects; for those, a backward
// linear scan over a contiguous slice beats a map's hashing and its
// per-attempt clearing cost. It is also the length of the inline entry
// array embedded in Tx, so small transactions never allocate a separate
// access-set backing array.
const smallAccessSet = 8

// smallWriteSlots is the number of inline tentative-version/locator pairs
// embedded in Tx. Writes beyond it use heap slots that the Tx allocates
// once and keeps for its later attempts.
const smallWriteSlots = 4

// lookup finds the most recent entry for o (a write upgrade appends a
// second entry for the same object; the latest one carries the tentative
// value). Small access sets scan backwards; larger ones use the map built
// by addEntry. A miss returns index −1, so a caller that forgets to check
// ok faults loudly instead of silently aliasing entry 0.
func (tx *Tx) lookup(o *Object) (int, bool) {
	if tx.index != nil {
		if idx, ok := tx.index[o]; ok {
			return idx, true
		}
		return -1, false
	}
	for i := len(tx.entries) - 1; i >= 0; i-- {
		if tx.entries[i].obj == o {
			return i, true
		}
	}
	return -1, false
}

// newWriteSlot hands out the tentative version and locator for one write
// acquisition: an inline Tx slot while any remain, then the Tx's heap
// slots, growing them by one when all are taken.
func (tx *Tx) newWriteSlot() (*version, *locator) {
	var s *wslot
	if tx.wnext < smallWriteSlots {
		s = &tx.wslots[tx.wnext]
	} else if i := tx.wnext - smallWriteSlots; i < len(tx.wmore) {
		s = tx.wmore[i]
	} else {
		if tx.wmore == nil {
			tx.wmore = make([]*wslot, 0, 2*smallWriteSlots)
		}
		s = new(wslot)
		tx.wmore = append(tx.wmore, s)
	}
	tx.wnext++
	return &s.ver, &s.loc
}

// addEntry appends (o, v) to T.O and indexes it. A write upgrade leaves the
// previously read entry in place so commit-time validation still checks the
// version the transaction actually read. Crossing smallAccessSet promotes
// the index to the Thread's reusable map (populated in entry order, so each
// object maps to its latest entry).
func (tx *Tx) addEntry(o *Object, v *version, written bool) {
	tx.entries = append(tx.entries, entry{obj: o, ver: v, written: written})
	if tx.index != nil {
		tx.index[o] = len(tx.entries) - 1
	} else if len(tx.entries) > smallAccessSet {
		if tx.th.index == nil {
			tx.th.index = make(map[*Object]int, 4*smallAccessSet)
		} else {
			clear(tx.th.index)
		}
		tx.index = tx.th.index
		for i := range tx.entries {
			tx.index[tx.entries[i].obj] = i
		}
	}
	tx.ops.Add(1)
}

// getVersion selects the version of o to read (Algorithm 3, getVersion).
// Update transactions must read the most recent committed version (an older
// one could never be extended to the commit time), so they extend the
// snapshot if the head is too recent. Read-only transactions instead walk
// back to an older version overlapping their snapshot — this is what makes
// them abort-free under concurrent updates as long as history suffices.
func (tx *Tx) getVersion(o *Object) (*version, bool) {
	for {
		loc := o.settle(tx.th)
		if w := loc.writer; w != nil && w != tx && w.Status() == StatusCommitting {
			// Line 13: help the committing writer to completion so the
			// settled state (and its commit time) becomes definite.
			tx.th.help(w)
			continue
		}
		head := loc.cur
		if tx.upper.LaterEq(head.validFrom) {
			return head, true
		}
		// Head is possibly more recent than the snapshot. Serializable
		// update transactions must read the head (and so try to extend);
		// read-only transactions — and, under snapshot isolation, all
		// transactions — read at their snapshot from older versions.
		if !tx.readOnly && !tx.rt.si {
			if !tx.closed && !tx.rt.disableExt {
				tx.extend()
				if tx.upper.LaterEq(head.validFrom) {
					return head, true
				}
			}
			return nil, false
		}
		for v := head.prev.Load(); v != nil; v = v.prev.Load() {
			if !v.upperBound().LaterEq(tx.lower) {
				// This version ends before the snapshot starts; older ones
				// end even earlier.
				return nil, false
			}
			if tx.upper.LaterEq(v.validFrom) {
				return v, true
			}
		}
		return nil, false
	}
}

// extend tries to grow the snapshot's upper bound to the current time
// (Algorithm 3, Extend). It re-derives the bound of every read version; a
// superseded version closes the transaction (no future extension can help).
func (tx *Tx) extend() {
	// Snapshot-isolation transactions never move their snapshot forward:
	// reads stay at begin time and conflicting writes abort instead.
	if tx.closed || tx.rt.disableExt || tx.rt.si {
		return
	}
	t := tx.th.clock.GetTime()
	upper := t
	for i := range tx.entries {
		e := &tx.entries[i]
		if e.written {
			continue
		}
		ub := prelimUB(e.obj, e.ver, t, tx, tx.th.clock)
		upper = timebase.Min(upper, ub)
		if e.ver.fixedUB.Load() != nil {
			tx.closed = true
		}
	}
	tx.upper = upper
	tx.th.stats.Extensions++
}

// commit attempts to commit the transaction (Algorithm 2, Commit).
func (tx *Tx) commit() error {
	if !tx.update {
		// Read-only transactions built their snapshot incrementally and
		// consistently; no validation is necessary (line 37).
		if tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted)) {
			return nil
		}
		return ErrAborted
	}
	if !tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
		return ErrAborted
	}
	if tx.finishCommit(tx.th.clock) {
		return nil
	}
	if tx.cause == CauseNone {
		tx.cause = CauseValidation
		tx.th.stats.AbortValidation++
	}
	return ErrAborted
}

// finishCommit drives a committing transaction to a terminal state and
// reports whether it committed. It is invoked by the owner and by helping
// threads (with their own clocks) and is idempotent: every step is a CAS
// and validation reads only the frozen access set.
func (w *Tx) finishCommit(clock timebase.Clock) bool {
	ensureCT(w, clock)
	ct := w.CT()
	// Lines 43–48: the snapshot must extend to the commit time. Every
	// accessed version must still be (possibly) valid at ct; a version
	// superseded before ct kills the commit.
	//
	// Under snapshot isolation only the written objects matter, and those
	// are protected by ownership from acquisition to commit — read-write
	// conflicts are tolerated, so the read entries are skipped.
	for i := range w.entries {
		e := &w.entries[i]
		if w.rt.si && !e.written {
			continue
		}
		ub := prelimUB(e.obj, e.ver, ct, w, clock)
		if ct.PossiblyLater(ub) {
			w.abort()
			return w.Status() == StatusCommitted
		}
	}
	w.status.CompareAndSwap(int32(StatusCommitting), int32(StatusCommitted))
	return w.Status() == StatusCommitted
}

// ensureCT fixes the transaction's commit time if it is still unset, using
// the calling thread's clock (Algorithm 2 lines 41–42; any thread may win
// the CAS). LSA-RT's §2.4 argument requires that no thread reasons about a
// committing transaction whose commit time could still land in the past —
// setting it here, before drawing conclusions, closes that window.
//
// The first thread in claims the inline ctBuf: it is ctBuf's only writer
// ever, and the ct CAS publishes the buffer with release/acquire ordering,
// so the uncontended commit fixes its timestamp without allocating. A
// thread that loses the claim must not wait (the winner may be preempted
// between claim and publish — exactly the schedule helping exists for), so
// it falls back to allocating its own candidate and racing the CAS, which
// preserves lock-freedom.
func ensureCT(w *Tx, clock timebase.Clock) {
	if w.ct.Load() != nil {
		return
	}
	if w.ctClaim.CompareAndSwap(false, true) {
		w.ctBuf = clock.GetNewTS()
		w.ct.CompareAndSwap(nil, &w.ctBuf)
		return
	}
	t := clock.GetNewTS()
	w.ct.CompareAndSwap(nil, &t)
}

// backoff yields (briefly at first, then sleeping) between conflict
// resolution attempts.
func backoff(n int) {
	if n < 4 {
		runtime.Gosched()
		return
	}
	shift := n
	if shift > 14 {
		shift = 14
	}
	time.Sleep(time.Microsecond << uint(shift-4))
}
