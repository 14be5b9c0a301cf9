package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/stmserve"
	"repro/internal/timebase"
)

// workload is one traffic mix: how to set the program up and how its
// closed-loop workers generate operations from the seed.
type workload struct {
	name string
	// workers is the number of closed-loop workers, each with one
	// operation outstanding. The host has 2 cores.
	workers int
	// sampleEvery sets the traced run's sampling: spans for 1 operation in
	// sampleEvery, so span memory stays bounded at the workload's rate.
	sampleEvery uint64
	setup       func(setupConfig) (system, error)
}

// setupConfig is what every set-up receives. tr is nil for untraced runs.
type setupConfig struct {
	tr  *tracer
	dir string // directory for the run's own files, such as WAL directories
}

// system is one set-up instance of a workload.
type system interface {
	// workers returns the closed-loop workers, created in id order; the
	// same seed yields the same operation streams.
	workers(seed uint64) []worker
	// engineStats returns the engine's counters; call only while no worker
	// runs.
	engineStats() engine.Stats
	// probes returns the tracing decorators, zero for an untraced system.
	probes() *probes
	// verify checks the final state after every worker stopped.
	verify() error
	close() error
}

// worker generates and performs one worker's operations.
type worker interface {
	// next draws the next operation from the seeded stream and reports
	// whether it is an update.
	next() (update bool)
	// call performs it; this is the timed part.
	call() error
	// check verifies the operation's result.
	check() bool
}

// probes are the decorators of a traced system plus what the layers report
// about themselves.
type probes struct {
	engine   *tracedEngine
	timebase *tracedTimeBase
	conns    []*tracedConn // client end, server end, per connection
}

var workloads = []*workload{
	{name: "stm-bank", workers: 2, sampleEvery: 64, setup: setupBank},
	{name: "wire-kv", workers: 2, sampleEvery: 8, setup: setupWireKV},
	{name: "durable-transfer", workers: 2, sampleEvery: 1, setup: setupDurable},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q", name)
}

// workerRand returns worker i's generator for seed.
func workerRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)+0x9e3779b97f4a7c15))
}

// ---------------------------------------------------------------------------
// stm-bank: the LSA engine in-process, no service.

const (
	bankAccounts  = 65536
	bankGroupSize = 64
	bankGroups    = bankAccounts / bankGroupSize
	bankInitial   = 1000
	bankZipfS     = 1.1
)

type bank struct {
	eng   engine.Engine
	cells []engine.Cell
	pr    probes
	nthr  int
}

// setupBank builds lsa/shared, the library's default engine, and the
// accounts. Traced, it assembles the same engine by hand so the time base
// can be decorated: core.NewRuntime over the shared counter, wrapped by
// engine.WrapLSA, as the registry does.
func setupBank(c setupConfig) (system, error) {
	b := &bank{}
	if c.tr == nil {
		eng, err := engine.New("lsa/shared", engine.Options{})
		if err != nil {
			return nil, err
		}
		b.eng = eng
	} else {
		b.pr.timebase = newTracedTimeBase(timebase.NewSharedCounter(), c.tr)
		rt, err := core.NewRuntime(core.Config{TimeBase: b.pr.timebase})
		if err != nil {
			return nil, err
		}
		b.pr.engine = newTracedEngine(engine.WrapLSA("lsa/shared", rt), c.tr, lOp, false)
		b.eng = b.pr.engine
	}
	b.cells = make([]engine.Cell, bankAccounts)
	for i := range b.cells {
		b.cells[i] = b.eng.NewCell(bankInitial)
	}
	return b, nil
}

func (b *bank) workers(seed uint64) []worker {
	ds := make([]worker, 2)
	for i := range ds {
		ds[i] = newBankWorker(b, b.eng.Thread(i), workerRand(seed, i))
	}
	b.nthr = len(ds)
	return ds
}

func (b *bank) engineStats() engine.Stats { return b.eng.Stats() }
func (b *bank) probes() *probes           { return &b.pr }
func (b *bank) close() error              { return nil }

// verify audits every group and the conserved total on a fresh thread.
func (b *bank) verify() error {
	th := b.eng.Thread(b.nthr)
	total := 0
	for g := 0; g < bankGroups; g++ {
		sum, err := groupSum(th, b.cells[g*bankGroupSize:(g+1)*bankGroupSize])
		if err != nil {
			return err
		}
		if sum != bankGroupSize*bankInitial {
			return fmt.Errorf("stm-bank: group %d sums to %d, want %d", g, sum, bankGroupSize*bankInitial)
		}
		total += sum
	}
	if total != bankAccounts*bankInitial {
		return fmt.Errorf("stm-bank: total %d, want %d", total, bankAccounts*bankInitial)
	}
	return nil
}

func groupSum(th engine.Thread, cells []engine.Cell) (int, error) {
	sum := 0
	err := th.RunReadOnly(func(tx engine.Txn) error {
		sum = 0
		for _, c := range cells {
			v, err := engine.Get[int](tx, c)
			if err != nil {
				return err
			}
			sum += v
		}
		return nil
	})
	return sum, err
}

type bankWorker struct {
	th    engine.Thread
	cells []engine.Cell
	rng   *rand.Rand
	zipf  *rand.Zipf

	audit    bool
	group    []engine.Cell
	from, to int
	amount   int
	sum      int

	transferFn, auditFn func(engine.Txn) error
}

func newBankWorker(b *bank, th engine.Thread, rng *rand.Rand) *bankWorker {
	d := &bankWorker{th: th, cells: b.cells, rng: rng, zipf: rand.NewZipf(rng, bankZipfS, 1, bankGroups-1)}
	// The transaction closures are built once, so the worker adds no
	// allocation per operation.
	d.transferFn = func(tx engine.Txn) error {
		f, err := engine.Get[int](tx, d.group[d.from])
		if err != nil {
			return err
		}
		t, err := engine.Get[int](tx, d.group[d.to])
		if err != nil {
			return err
		}
		if err := engine.Set(tx, d.group[d.from], f-d.amount); err != nil {
			return err
		}
		return engine.Set(tx, d.group[d.to], t+d.amount)
	}
	d.auditFn = func(tx engine.Txn) error {
		d.sum = 0
		for _, c := range d.group {
			v, err := engine.Get[int](tx, c)
			if err != nil {
				return err
			}
			d.sum += v
		}
		return nil
	}
	return d
}

// next: 90% transfers between two accounts of a zipf-chosen group, 10%
// read-only audits of a whole group.
func (d *bankWorker) next() bool {
	g := int(d.zipf.Uint64())
	d.group = d.cells[g*bankGroupSize : (g+1)*bankGroupSize]
	d.audit = d.rng.IntN(10) == 0
	if !d.audit {
		d.from = d.rng.IntN(bankGroupSize)
		d.to = d.rng.IntN(bankGroupSize - 1)
		if d.to >= d.from {
			d.to++
		}
		d.amount = 1 + d.rng.IntN(100)
	}
	return !d.audit
}

func (d *bankWorker) call() error {
	if d.audit {
		return d.th.RunReadOnly(d.auditFn)
	}
	return d.th.Run(d.transferFn)
}

func (d *bankWorker) check() bool {
	return !d.audit || d.sum == bankGroupSize*bankInitial
}

// ---------------------------------------------------------------------------
// wire-kv: stmserve over norec, driven through loopback TCP.

const (
	kvKeys      = 65536
	kvInitial   = 1000
	kvGroupSize = 8
	kvGroups    = kvKeys / kvGroupSize
)

type wireKV struct {
	svc     *stmserve.Service
	srv     *stmserve.Server
	ln      net.Listener
	clients []*stmserve.Client
	served  sync.WaitGroup
	pr      probes
}

// setupWireKV builds the service over norec (stmserve's default engine),
// listens on loopback, and opens one connection per worker. Connections are
// set up one at a time, and each is proven served with a PING, so
// connection i owns the service's engine thread i: ServeConn creates its
// session before it reads.
func setupWireKV(c setupConfig) (_ system, err error) {
	eng, err := engine.New("norec", engine.Options{})
	if err != nil {
		return nil, err
	}
	s := &wireKV{}
	if c.tr != nil {
		s.pr.engine = newTracedEngine(eng, c.tr, lServer, true)
		eng = s.pr.engine
	}
	if s.svc, err = stmserve.New(eng, stmserve.Config{Keys: kvKeys, Initial: kvInitial}); err != nil {
		return nil, err
	}
	s.srv = stmserve.NewServer(s.svc)
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < 2; i++ {
		var cc, sc io.ReadWriteCloser
		if cc, err = net.Dial("tcp", s.ln.Addr().String()); err != nil {
			return nil, err
		}
		if sc, err = s.ln.Accept(); err != nil {
			cc.Close()
			return nil, err
		}
		if c.tr != nil {
			tc, ts := newTracedConn(cc, c.tr.slot(i), false), newTracedConn(sc, c.tr.slot(i), true)
			s.pr.conns = append(s.pr.conns, tc, ts)
			cc, sc = tc, ts
		}
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			s.srv.ServeConn(sc)
		}()
		cl := stmserve.NewClient(cc)
		s.clients = append(s.clients, cl)
		var resp stmserve.Response
		if err = cl.Do(&stmserve.Request{Op: stmserve.OpPing}, &resp); err != nil {
			return nil, fmt.Errorf("wire-kv: ping: %w", err)
		}
	}
	return s, nil
}

func (s *wireKV) workers(seed uint64) []worker {
	ds := make([]worker, len(s.clients))
	for i, cl := range s.clients {
		ds[i] = &kvWorker{c: cl, rng: workerRand(seed, i), req: stmserve.Request{Keys: make([]int, kvGroupSize)}}
	}
	return ds
}

func (s *wireKV) engineStats() engine.Stats { return s.svc.Engine().Stats() }
func (s *wireKV) probes() *probes           { return &s.pr }

// verify snapshots every group over the wire, 128 groups a request, and
// checks each group's sum and the total.
func (s *wireKV) verify() error {
	cl := s.clients[0]
	req := stmserve.Request{Op: stmserve.OpSnapshot, Keys: make([]int, 128*kvGroupSize)}
	var resp stmserve.Response
	total := int64(0)
	for base := 0; base < kvKeys; base += len(req.Keys) {
		for i := range req.Keys {
			req.Keys[i] = base + i
		}
		if err := cl.Do(&req, &resp); err != nil {
			return err
		}
		if resp.Err != "" || len(resp.Vals) != len(req.Keys) {
			return fmt.Errorf("wire-kv: final snapshot at key %d: %q, %d values", base, resp.Err, len(resp.Vals))
		}
		for g := 0; g < len(resp.Vals); g += kvGroupSize {
			sum := int64(0)
			for _, v := range resp.Vals[g : g+kvGroupSize] {
				sum += v
			}
			if sum != kvGroupSize*kvInitial {
				return fmt.Errorf("wire-kv: group at key %d sums to %d, want %d", base+g, sum, kvGroupSize*kvInitial)
			}
			total += sum
		}
	}
	if total != kvKeys*kvInitial {
		return fmt.Errorf("wire-kv: total %d, want %d", total, kvKeys*kvInitial)
	}
	return nil
}

func (s *wireKV) close() error {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.ln.Close()
	s.served.Wait()
	return s.svc.Close()
}

type kvWorker struct {
	c    *stmserve.Client
	rng  *rand.Rand
	req  stmserve.Request
	resp stmserve.Response
}

// next: 75% point reads, 15% transfers inside an 8-key group, 10%
// snapshots of one 8-key group.
func (d *kvWorker) next() bool {
	r := d.rng.IntN(100)
	g := d.rng.IntN(kvGroups) * kvGroupSize
	switch {
	case r < 75:
		d.req.Op, d.req.Key = stmserve.OpRead, d.rng.IntN(kvKeys)
	case r < 90:
		from := d.rng.IntN(kvGroupSize)
		to := d.rng.IntN(kvGroupSize - 1)
		if to >= from {
			to++
		}
		d.req.Op, d.req.Key, d.req.Key2, d.req.Val = stmserve.OpTransfer, g+from, g+to, 1+d.rng.Int64N(100)
	default:
		d.req.Op = stmserve.OpSnapshot
		for i := range d.req.Keys {
			d.req.Keys[i] = g + i
		}
	}
	return d.req.Op == stmserve.OpTransfer
}

func (d *kvWorker) call() error { return d.c.Do(&d.req, &d.resp) }

func (d *kvWorker) check() bool {
	if d.resp.Err != "" {
		return false
	}
	switch d.req.Op {
	case stmserve.OpRead:
		return len(d.resp.Vals) == 1
	case stmserve.OpSnapshot:
		sum := int64(0)
		for _, v := range d.resp.Vals {
			sum += v
		}
		return len(d.resp.Vals) == kvGroupSize && sum == kvGroupSize*kvInitial
	}
	return true
}

// ---------------------------------------------------------------------------
// durable-transfer: stmserve over durable/norec with group fsync, driven
// through in-process sessions.

// durableFsync is the WAL's fsync policy; its group interval is the
// durable package's default.
const durableFsync = durable.FsyncGroup

type durableKV struct {
	dir      string
	eng      *durable.Engine
	svc      *stmserve.Service
	sessions []*stmserve.Session
	tr       *tracer
	pr       probes

	// Filled by verify: the log's size and commit count, and how long the
	// restart took to recover it.
	walBytes  int64
	commits   uint64
	recoverNS int64
}

func setupDurable(c setupConfig) (_ system, err error) {
	s := &durableKV{tr: c.tr}
	if s.dir, err = os.MkdirTemp(c.dir, "wal-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(s.dir)
		}
	}()
	inner, err := engine.New("norec", engine.Options{})
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		// The inner engine is decorated, not the durable one: Service.Close
		// must still find engine.Durable on what it was given.
		s.pr.engine = newTracedEngine(inner, c.tr, lService, false)
		inner = s.pr.engine
	}
	if s.eng, err = durable.Wrap(inner, durable.Options{Dir: s.dir, Fsync: durableFsync}); err != nil {
		return nil, err
	}
	if s.svc, err = stmserve.New(s.eng, stmserve.Config{Keys: kvKeys, Initial: kvInitial}); err != nil {
		s.eng.WALClose()
		return nil, err
	}
	// Sessions are created in worker order, so session i owns engine
	// thread i.
	for i := 0; i < 2; i++ {
		s.sessions = append(s.sessions, s.svc.Session())
	}
	return s, nil
}

func (s *durableKV) workers(seed uint64) []worker {
	ds := make([]worker, len(s.sessions))
	for i, ss := range s.sessions {
		ds[i] = &durWorker{s: ss, rng: workerRand(seed, i), slot: s.tr.slot(i)}
	}
	return ds
}

func (s *durableKV) engineStats() engine.Stats { return s.eng.Stats() }
func (s *durableKV) probes() *probes           { return &s.pr }

// verify checks the conserved total, then restarts: it closes the service
// (flushing and closing the WAL), recovers the same directory through
// durable into a fresh norec engine, and compares every key.
func (s *durableKV) verify() error {
	before, err := readAll(s.sessions[0])
	if err != nil {
		return err
	}
	total := int64(0)
	for _, v := range before {
		total += v
	}
	if total != kvKeys*kvInitial {
		return fmt.Errorf("durable-transfer: total %d, want %d", total, kvKeys*kvInitial)
	}
	s.commits = s.eng.AppendedSeq()
	for _, ss := range s.sessions {
		ss.Close()
	}
	if err := s.svc.Close(); err != nil {
		return fmt.Errorf("durable-transfer: close: %w", err)
	}
	if s.walBytes, err = dirBytes(s.dir); err != nil {
		return err
	}
	start := time.Now()
	inner, err := engine.New("norec", engine.Options{})
	if err != nil {
		return err
	}
	eng, err := durable.Wrap(inner, durable.Options{Dir: s.dir, Fsync: durableFsync})
	if err != nil {
		return fmt.Errorf("durable-transfer: reopen: %w", err)
	}
	svc, err := stmserve.New(eng, stmserve.Config{Keys: kvKeys, Initial: kvInitial})
	if err != nil {
		eng.WALClose()
		return err
	}
	s.recoverNS = int64(time.Since(start))
	defer svc.Close()
	after, err := readAll(svc.Session())
	if err != nil {
		return err
	}
	for k := range before {
		if after[k] != before[k] {
			return fmt.Errorf("durable-transfer: key %d is %d after restart, %d before", k, after[k], before[k])
		}
	}
	return nil
}

// readAll reads every key in one read-only snapshot.
func readAll(ss *stmserve.Session) ([]int64, error) {
	req := stmserve.Request{Op: stmserve.OpSnapshot, Keys: make([]int, kvKeys)}
	for i := range req.Keys {
		req.Keys[i] = i
	}
	var resp stmserve.Response
	if err := ss.Exec(&req, &resp); err != nil {
		return nil, fmt.Errorf("durable-transfer: read all keys: %w", err)
	}
	if len(resp.Vals) != kvKeys {
		return nil, fmt.Errorf("durable-transfer: read %d keys, want %d", len(resp.Vals), kvKeys)
	}
	return resp.Vals, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (s *durableKV) close() error {
	err := s.svc.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

type durWorker struct {
	s    *stmserve.Session
	rng  *rand.Rand
	slot *slot
	req  stmserve.Request
	resp stmserve.Response
}

// next: 80% transfers between two distinct keys, 20% point reads.
func (d *durWorker) next() bool {
	if d.rng.IntN(5) == 0 {
		d.req.Op, d.req.Key = stmserve.OpRead, d.rng.IntN(kvKeys)
		return false
	}
	from := d.rng.IntN(kvKeys)
	to := d.rng.IntN(kvKeys - 1)
	if to >= from {
		to++
	}
	d.req.Op, d.req.Key, d.req.Key2, d.req.Val = stmserve.OpTransfer, from, to, 1+d.rng.Int64N(100)
	return true
}

// call runs the request on the session. Traced, it records the service
// span and the durable engine's share of it: from the decorated inner
// engine's return to Exec's return.
func (d *durWorker) call() error {
	if d.slot == nil {
		return d.s.Exec(&d.req, &d.resp)
	}
	op := d.slot.op.Load()
	start := now()
	err := d.s.Exec(&d.req, &d.resp)
	if op != 0 {
		end := now()
		d.slot.local.add(span{op: op, start: start, end: end, name: lService, parent: lOp})
		if ee := d.slot.engineEnd.Load(); ee >= start {
			d.slot.local.add(span{op: op, start: ee, end: end, name: lDurable, parent: lService})
		}
	}
	return err
}

func (d *durWorker) check() bool {
	return d.req.Op != stmserve.OpRead || len(d.resp.Vals) == 1
}

// counters is a snapshot of every count the decorators keep.
type counters struct {
	threads   runCounts
	clocks    clockCounts
	srvReads  uint64
	srvWrites uint64
	wireBytes uint64 // bytes the clients wrote and read
}

func (p *probes) snapshot() (c counters) {
	if p.engine != nil {
		c.threads = p.engine.counts()
	}
	if p.timebase != nil {
		c.clocks = p.timebase.counts()
	}
	for _, k := range p.conns {
		if k.server {
			c.srvReads += k.reads.Load()
			c.srvWrites += k.writes.Load()
		} else {
			c.wireBytes += k.readBytes.Load() + k.writeBytes.Load()
		}
	}
	return c
}

func (c counters) combine(o counters, f func(x, y uint64) uint64) counters {
	return counters{
		threads: runCounts{
			runs: f(c.threads.runs, o.threads.runs), roRuns: f(c.threads.roRuns, o.threads.roRuns),
			attempts: f(c.threads.attempts, o.threads.attempts), roAttempts: f(c.threads.roAttempts, o.threads.roAttempts),
		},
		clocks: clockCounts{
			getTime: f(c.clocks.getTime, o.clocks.getTime), getNewTS: f(c.clocks.getNewTS, o.clocks.getNewTS),
		},
		srvReads: f(c.srvReads, o.srvReads), srvWrites: f(c.srvWrites, o.srvWrites),
		wireBytes: f(c.wireBytes, o.wireBytes),
	}
}
