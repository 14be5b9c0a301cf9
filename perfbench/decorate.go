package main

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/timebase"
)

// The tracing decorators wrap the program's public interfaces — the ones
// stmserve.New, durable.Wrap, core.NewRuntime, stmserve.NewClient and
// Server.ServeConn already accept — so the benchmark measures each layer
// without changing program code. Every decorator counts every call and
// records a span only while its worker's current operation is sampled.

// tracedEngine decorates an engine.Engine: cells, names and Stats pass
// through; threads are tracedThreads.
type tracedEngine struct {
	engine.Engine
	tr     *tracer
	parent layer // the layer whose span encloses Run
	remote bool  // Run executes on the server goroutine of the worker's connection

	mu      sync.Mutex
	threads []*tracedThread
}

func newTracedEngine(inner engine.Engine, tr *tracer, parent layer, remote bool) *tracedEngine {
	return &tracedEngine{Engine: inner, tr: tr, parent: parent, remote: remote}
}

// Thread decorates the inner thread. The result implements
// engine.AttemptCounter exactly when the inner thread does.
func (e *tracedEngine) Thread(id int) engine.Thread {
	t := &tracedThread{inner: e.Engine.Thread(id), parent: e.parent}
	// The retry closure is built once per thread, like the engines' own
	// adapters do, so a decorated Run allocates nothing extra. It hands the
	// inner Txn through untouched, so engine.IntTxn keeps working.
	t.step = func(tx engine.Txn) error {
		t.attempts.Add(1)
		return t.fn(tx)
	}
	if sl := e.tr.slot(id); sl != nil {
		t.slot, t.buf = sl, &sl.local
		if e.remote {
			t.buf = &sl.remote
		}
	}
	e.mu.Lock()
	e.threads = append(e.threads, t)
	e.mu.Unlock()
	if ac, ok := t.inner.(engine.AttemptCounter); ok {
		return &countingThread{tracedThread: t, ac: ac}
	}
	return t
}

// counts sums every thread's counters. Call it only while no transaction
// runs.
func (e *tracedEngine) counts() (c runCounts) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.threads {
		c.runs += t.runs.Load()
		c.roRuns += t.roRuns.Load()
		c.attempts += t.attempts.Load()
		c.roAttempts += t.roAttempts.Load()
	}
	return c
}

// runCounts are the call and closure-invocation tallies of an engine's
// threads.
type runCounts struct {
	runs, roRuns         uint64 // Run and RunReadOnly calls
	attempts, roAttempts uint64 // closure invocations: all, and those under RunReadOnly
}

// threadCounts are one thread's runCounts. They are atomic because a
// server goroutine updates them while the benchmark's goroutine reads
// them between phases, with no other synchronization in between.
type threadCounts struct {
	runs, roRuns, attempts, roAttempts atomic.Uint64
}

type tracedThread struct {
	threadCounts
	inner  engine.Thread
	parent layer
	slot   *slot
	buf    *spanBuf
	fn     func(engine.Txn) error
	step   func(engine.Txn) error
}

func (t *tracedThread) ID() int { return t.inner.ID() }

func (t *tracedThread) Run(fn func(engine.Txn) error) error { return t.run(fn, false) }

func (t *tracedThread) RunReadOnly(fn func(engine.Txn) error) error { return t.run(fn, true) }

// run saves and restores the fn slot, so a nested transaction on the same
// thread leaves the outer retry loop's closure intact.
func (t *tracedThread) run(fn func(engine.Txn) error, readOnly bool) error {
	var op uint64
	var start int64
	if t.slot != nil {
		if op = t.slot.op.Load(); op != 0 {
			start = now()
		}
	}
	prev := t.fn
	t.fn = fn
	before := t.attempts.Load()
	var err error
	if readOnly {
		t.roRuns.Add(1)
		err = t.inner.RunReadOnly(t.step)
		t.roAttempts.Add(t.attempts.Load() - before)
	} else {
		t.runs.Add(1)
		err = t.inner.Run(t.step)
	}
	t.fn = prev
	if op != 0 {
		end := now()
		t.buf.add(span{op: op, start: start, end: end, name: lEngine, parent: t.parent})
		t.slot.engineEnd.Store(end)
	}
	return err
}

// countingThread is a tracedThread over a thread that counts its own
// attempts; it forwards engine.AttemptCounter.
type countingThread struct {
	*tracedThread
	ac engine.AttemptCounter
}

func (t *countingThread) Attempts() uint64 { return t.ac.Attempts() }

// tracedTimeBase decorates a timebase.TimeBase; its clocks count and time
// every GetTime and GetNewTS.
type tracedTimeBase struct {
	timebase.TimeBase
	tr *tracer

	mu     sync.Mutex
	clocks []*tracedClock
}

func newTracedTimeBase(inner timebase.TimeBase, tr *tracer) *tracedTimeBase {
	return &tracedTimeBase{TimeBase: inner, tr: tr}
}

// Clock decorates the inner clock handle. The result implements
// timebase.Reconciler exactly when the inner handle does.
func (b *tracedTimeBase) Clock(id int) timebase.Clock {
	c := &tracedClock{inner: b.TimeBase.Clock(id), slot: b.tr.slot(id)}
	b.mu.Lock()
	b.clocks = append(b.clocks, c)
	b.mu.Unlock()
	if r, ok := c.inner.(timebase.Reconciler); ok {
		return reconcilingClock{tracedClock: c, Reconciler: r}
	}
	return c
}

// clockCounts are the time-base calls of one clock handle.
type clockCounts struct {
	getTime, getNewTS uint64
}

// counts sums every handle's counters. Call it only while no transaction
// runs.
func (b *tracedTimeBase) counts() (c clockCounts) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.clocks {
		c.getTime += k.getTime
		c.getNewTS += k.getNewTS
	}
	return c
}

type tracedClock struct {
	clockCounts
	inner timebase.Clock
	slot  *slot
}

func (c *tracedClock) GetTime() timebase.Timestamp {
	c.getTime++
	op, start := c.begin()
	ts := c.inner.GetTime()
	c.end(op, start)
	return ts
}

func (c *tracedClock) GetNewTS() timebase.Timestamp {
	c.getNewTS++
	op, start := c.begin()
	ts := c.inner.GetNewTS()
	c.end(op, start)
	return ts
}

func (c *tracedClock) begin() (op uint64, start int64) {
	if c.slot == nil {
		return 0, 0
	}
	if op = c.slot.op.Load(); op != 0 {
		start = now()
	}
	return op, start
}

func (c *tracedClock) end(op uint64, start int64) {
	if op != 0 {
		c.slot.local.add(span{op: op, start: start, end: now(), name: lTimebase, parent: lEngine})
	}
}

// reconcilingClock is a tracedClock over a handle with a stale local view;
// it forwards timebase.Reconciler.
type reconcilingClock struct {
	*tracedClock
	timebase.Reconciler
}

// tracedConn decorates one end of a line-protocol connection. On the
// client end it times each Write and Read; on the server end it times the
// interval from a Read that returns a request to the Write that returns
// the response.
type tracedConn struct {
	io.ReadWriteCloser
	slot   *slot
	server bool

	// Atomic for the same reason as threadCounts.
	reads, writes, readBytes, writeBytes atomic.Uint64

	busyOp    uint64 // server: the sampled operation being served, or 0
	busyStart int64
}

func newTracedConn(inner io.ReadWriteCloser, sl *slot, server bool) *tracedConn {
	return &tracedConn{ReadWriteCloser: inner, slot: sl, server: server}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	var op uint64
	var start int64
	if !c.server {
		if op = c.slot.op.Load(); op != 0 {
			start = now()
		}
	}
	n, err := c.ReadWriteCloser.Read(p)
	c.reads.Add(1)
	c.readBytes.Add(uint64(n))
	switch {
	case c.server && n > 0:
		if op := c.slot.op.Load(); op != 0 {
			c.busyOp, c.busyStart = op, now()
		}
	case op != 0:
		c.slot.local.add(span{op: op, start: start, end: now(), name: lClientRead, parent: lOp})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	var op uint64
	var start int64
	if !c.server {
		if op = c.slot.op.Load(); op != 0 {
			start = now()
		}
	}
	n, err := c.ReadWriteCloser.Write(p)
	c.writes.Add(1)
	c.writeBytes.Add(uint64(n))
	switch {
	case c.server && c.busyOp != 0:
		c.slot.remote.add(span{op: c.busyOp, start: c.busyStart, end: now(), name: lServer, parent: lClientRead})
		c.busyOp = 0
	case op != 0:
		c.slot.local.add(span{op: op, start: start, end: now(), name: lClientWrite, parent: lOp})
	}
	return n, err
}
