package durable

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/val"
)

// runCommitters starts n goroutines, each setting its own cell to 1, 2, …
// up to limit (or until a commit fails), and records the highest
// acknowledged value per goroutine in acked.
func runCommitters(e *Engine, cells []engine.Cell, limit int, acked []atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := range cells {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := e.Thread(w)
			for i := 1; i <= limit; i++ {
				if err := th.Run(func(tx engine.Txn) error {
					return engine.Set(tx, cells[w], i)
				}); err != nil {
					return
				}
				acked[w].Store(int64(i))
			}
		}(w)
	}
	return &wg
}

// TestGroupCommitSharesFsyncs: concurrent committers under "group" share
// fsyncs (the leader's fsync covers the records appended behind it), the
// commit and fsync counters show it, and every acknowledged commit is in
// the directory when it is reopened without an orderly close.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const nThreads, perThread = 8, 100
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{Fsync: FsyncGroup})
	defer e.WALClose()
	cells := make([]engine.Cell, nThreads)
	for i := range cells {
		cells[i] = e.NewCell(0)
	}
	acked := make([]atomic.Int64, nThreads)
	runCommitters(e, cells, perThread, acked).Wait()
	for w := range acked {
		if got := acked[w].Load(); got != perThread {
			t.Fatalf("thread %d acked %d of %d commits", w, got, perThread)
		}
	}

	info := e.DurabilityInfo()
	if info.Commits != nThreads*perThread {
		t.Errorf("Commits = %d, want %d", info.Commits, nThreads*perThread)
	}
	if info.Fsyncs == 0 || info.Fsyncs >= info.Commits {
		t.Errorf("Fsyncs = %d for %d commits, want 0 < fsyncs < commits", info.Fsyncs, info.Commits)
	}

	e2 := newTestEngine(t, "norec", dir, Options{})
	defer e2.WALClose()
	if got := e2.DurabilityInfo().RecoveredSeq; got != nThreads*perThread {
		t.Errorf("RecoveredSeq = %d, want %d", got, nThreads*perThread)
	}
	for w := range cells {
		c := e2.NewCell(0)
		if err := e2.Thread(0).RunReadOnly(func(tx engine.Txn) error {
			n, err := engine.Get[int](tx, c)
			if err == nil && n != perThread {
				t.Errorf("cell %d recovered %d, want %d", w, n, perThread)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitLeaderHandoff drives the leader handoff through segment
// rotation, an explicit WALSync and a WALClose, all racing eight group
// committers on a log that rotates every few records; the recovered log
// must hold every acknowledged commit and exactly the appended prefix.
func TestGroupCommitLeaderHandoff(t *testing.T) {
	const nThreads = 8
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{Fsync: FsyncGroup, SegmentBytes: 128})
	cells := make([]engine.Cell, nThreads)
	for i := range cells {
		cells[i] = e.NewCell(0)
	}
	acked := make([]atomic.Int64, nThreads)
	total := func() (n int64) {
		for w := range acked {
			n += acked[w].Load()
		}
		return n
	}
	wg := runCommitters(e, cells, 1000, acked)
	for total() < 200 {
		runtime.Gosched()
	}
	if err := e.WALSync(); err != nil {
		t.Fatalf("WALSync: %v", err)
	}
	for total() < 400 {
		runtime.Gosched()
	}
	if err := e.WALClose(); err != nil {
		t.Fatalf("WALClose: %v", err)
	}
	wg.Wait()
	if err := e.Crashed(); err != nil {
		t.Fatalf("log wedged: %v", err)
	}
	appended := e.AppendedSeq()

	rec, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.lastSeq != appended {
		t.Errorf("recovered seq %d, want the appended prefix %d", rec.lastSeq, appended)
	}
	if uint64(total()) > rec.lastSeq {
		t.Errorf("%d commits acked but only %d recovered", total(), rec.lastSeq)
	}
	for w := range acked {
		v, ok := rec.values[uint64(w)]
		n, _ := v.Load().(int)
		if !ok || int64(n) < acked[w].Load() {
			t.Errorf("cell %d recovered %v, acked %d", w, v.Load(), acked[w].Load())
		}
	}
}

// hookEngine calls hook before and after every transaction that the inner
// thread with worker id runs, so a test can act between a durable engine's
// internal transactions.
type hookEngine struct {
	engine.Engine
	id   int
	hook func(after bool)
}

func (h *hookEngine) Thread(id int) engine.Thread {
	th := h.Engine.Thread(id)
	if id != h.id {
		return th
	}
	return &hookThread{Thread: th, h: h}
}

type hookThread struct {
	engine.Thread
	h *hookEngine
}

func (t *hookThread) Run(fn func(engine.Txn) error) error {
	t.h.hook(false)
	defer t.h.hook(true)
	return t.Thread.Run(fn)
}

func (t *hookThread) RunReadOnly(fn func(engine.Txn) error) error {
	t.h.hook(false)
	defer t.h.hook(true)
	return t.Thread.RunReadOnly(fn)
}

// TestReplicaSnapshotWatermarkTrailsState: while a replica snapshot at
// watermark W installs, a reader that sees AppendedSeq() ≥ W must then read
// the snapshot's values — the applied-seq watermark that followers ack and
// tests wait on never runs ahead of the state.
func TestReplicaSnapshotWatermarkTrailsState(t *testing.T) {
	const nCells, W = 4, 7
	paused, resume := make(chan bool), make(chan struct{})
	p := &hookEngine{Engine: engine.MustNew("norec", engine.Options{}), id: applyThreadID,
		hook: func(after bool) { paused <- after; <-resume }}
	e, err := Wrap(p, Options{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.WALClose()
	cells := make([]engine.Cell, nCells)
	values := map[uint64]val.Value{}
	for i := range cells {
		cells[i] = e.NewCell(0)
		values[uint64(i)] = val.OfInt(100 + i)
	}
	reader := e.Thread(0)
	check := func(when string) {
		t.Helper()
		seq := e.AppendedSeq()
		if err := reader.RunReadOnly(func(tx engine.Txn) error {
			for i, c := range cells {
				n, err := engine.Get[int](tx, c)
				if err != nil {
					return err
				}
				if seq >= W && n != 100+i {
					t.Errorf("%s: AppendedSeq() = %d but cell %d = %d, the pre-snapshot value", when, seq, i, n)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- e.InstallReplicaSnapshot(W, values) }()
	for _, want := range []bool{false, true} {
		if after := <-paused; after != want {
			t.Fatalf("apply paused with after=%v, want %v", after, want)
		}
		check(map[bool]string{false: "before apply", true: "after apply"}[want])
		resume <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := e.AppendedSeq(); got != W {
		t.Fatalf("AppendedSeq() = %d after install, want %d", got, W)
	}
	check("installed")
}

// TestFuzzyCheckpointStraddlingCommit: a transfer that commits between two
// checkpoint chunks — after its debit cell was read, before its credit cell
// is — leaves the snapshot half-updated, and only replaying its record
// repairs that. The after-snapshot-rename crashpoint freezes the directory
// the instant the snapshot goes live; under "never" the record reaches disk
// only because the checkpoint syncs the log through s1 before installing.
func TestFuzzyCheckpointStraddlingCommit(t *testing.T) {
	const accounts, initial = 3 * compactChunk, 10
	dir := t.TempDir()
	crash := &Crashpoints{AfterSnapshotRename: true}
	var th engine.Thread
	var cells []engine.Cell
	snapTxns := 0
	h := &hookEngine{Engine: engine.MustNew("norec", engine.Options{}), id: snapThreadID,
		hook: func(after bool) {
			if !after {
				return
			}
			// Transactions of the snapshot thread: the s0 ticket read,
			// then chunk 0 — after which the transfer runs.
			if snapTxns++; snapTxns == 2 {
				if err := th.Run(func(tx engine.Txn) error {
					if err := engine.Update(tx, cells[0], func(n int) int { return n - 1 }); err != nil {
						return err
					}
					return engine.Update(tx, cells[2*compactChunk], func(n int) int { return n + 1 })
				}); err != nil {
					t.Error(err)
				}
			}
		}}
	e, err := Wrap(h, Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: -1, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer e.WALClose()
	th = e.Thread(0)
	for i := 0; i < accounts; i++ {
		cells = append(cells, e.NewCell(initial))
	}
	e.compact()
	if crash.Fired() != CrashAfterSnapshotRename {
		t.Fatal("after-snapshot-rename crashpoint did not fire")
	}

	rec, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	debit, credit := rec.values[0].Load().(int), rec.values[2*compactChunk].Load().(int)
	if debit != initial-1 || credit != initial+1 || rec.lastSeq != 1 {
		t.Errorf("recovered debit %d, credit %d, last seq %d; want %d, %d, 1",
			debit, credit, rec.lastSeq, initial-1, initial+1)
	}
}

// TestFuzzyCheckpointUnderLoad: compactions racing group-commit transfers
// across more cells than one checkpoint chunk holds leave directory images
// — copied while the transfers keep running, without an orderly close —
// that recover to a conserved bank total with every acknowledged commit.
func TestFuzzyCheckpointUnderLoad(t *testing.T) {
	const accounts, initial, nThreads, images = 3*compactChunk + 7, 10, 4, 5
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{Fsync: FsyncGroup})
	defer e.WALClose()
	cells := make([]engine.Cell, accounts+nThreads) // accounts, then one marker per thread
	for i := range cells {
		cells[i] = e.NewCell(initial)
	}
	acked := make([]atomic.Int64, nThreads)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nThreads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := e.Thread(w)
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := 1; !stop.Load(); i++ {
				a, b := rng.IntN(accounts), rng.IntN(accounts)
				if err := th.Run(func(tx engine.Txn) error {
					if err := engine.Update(tx, cells[a], func(n int) int { return n - 1 }); err != nil {
						return err
					}
					if err := engine.Update(tx, cells[b], func(n int) int { return n + 1 }); err != nil {
						return err
					}
					return engine.Set(tx, cells[accounts+w], i)
				}); err != nil {
					t.Error(err)
					stop.Store(true)
					return
				}
				acked[w].Store(int64(i))
			}
		}(w)
	}
	defer wg.Wait()
	defer stop.Store(true)

	for img := 0; img < images; img++ {
		for e.AppendedSeq() < uint64(100*(img+1)) {
			if stop.Load() {
				t.FailNow() // a transfer failed
			}
			runtime.Gosched()
		}
		e.compact()
		var want [nThreads]int64
		for w := range acked {
			want[w] = acked[w].Load()
		}
		rec := recoverImage(t, dir)
		if rec.snapSeq == 0 {
			t.Fatalf("image %d: compaction installed no snapshot", img)
		}
		sum := 0
		for id := uint64(0); id < accounts; id++ {
			sum += rec.values[id].Load().(int)
		}
		if sum != accounts*initial {
			t.Fatalf("image %d: recovered total %d, want %d (snapshot %d, last seq %d)",
				img, sum, accounts*initial, rec.snapSeq, rec.lastSeq)
		}
		for w := range want {
			if n := rec.values[uint64(accounts+w)].Load().(int); int64(n) < want[w] {
				t.Fatalf("image %d: thread %d recovered marker %d < acked %d", img, w, n, want[w])
			}
		}
	}
}

// recoverImage copies the files of a live WAL directory — what a crash at
// this instant would leave behind — and recovers the copy.
func recoverImage(t *testing.T, dir string) *recovery {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, en.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := recoverDir(image)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
