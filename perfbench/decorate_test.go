package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/timebase"
)

// runBank drives one worker through n operations of the stm-bank mix on
// eng and returns the final balances and the engine's statistics.
func runBank(t *testing.T, eng engine.Engine, seed uint64, n int) ([]int, engine.Stats) {
	t.Helper()
	b := &bank{eng: eng, cells: make([]engine.Cell, bankAccounts)}
	for i := range b.cells {
		b.cells[i] = eng.NewCell(bankInitial)
	}
	d := newBankWorker(b, eng.Thread(0), workerRand(seed, 0))
	for i := 0; i < n; i++ {
		d.next()
		if err := d.call(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !d.check() {
			t.Fatalf("op %d: audit sum %d", i, d.sum)
		}
	}
	th := eng.Thread(1)
	vals := make([]int, len(b.cells))
	for i, c := range b.cells {
		c := c
		if err := th.RunReadOnly(func(tx engine.Txn) error {
			v, err := engine.Get[int](tx, c)
			vals[i] = v
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return vals, eng.Stats()
}

func newTracedLSA(t *testing.T, tb timebase.TimeBase, tr *tracer) (*tracedEngine, *tracedTimeBase) {
	t.Helper()
	ttb := newTracedTimeBase(tb, tr)
	rt, err := core.NewRuntime(core.Config{TimeBase: ttb})
	if err != nil {
		t.Fatal(err)
	}
	return newTracedEngine(engine.WrapLSA("lsa/shared", rt), tr, lOp, false), ttb
}

// TestDecoratedEngineIsTransparent runs the same seeded single-worker
// stream on an undecorated and a decorated engine, with every operation
// sampled, and requires the same balances and the same Stats.
func TestDecoratedEngineIsTransparent(t *testing.T) {
	const seed, n = 7, 20000
	for _, name := range []string{"lsa/shared", "norec"} {
		t.Run(name, func(t *testing.T) {
			plain, err := engine.New(name, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantVals, wantStats := runBank(t, plain, seed, n)

			tr, err := newTracer(1, 1, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.free()
			tr.slots[0].op.Store(opID(0, 1)) // every call is traced
			var dec *tracedEngine
			if name == "lsa/shared" {
				dec, _ = newTracedLSA(t, timebase.NewSharedCounter(), tr)
			} else {
				inner, err := engine.New(name, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				dec = newTracedEngine(inner, tr, lOp, false)
			}
			gotVals, gotStats := runBank(t, dec, seed, n)
			for i := range wantVals {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("account %d: decorated %d, plain %d", i, gotVals[i], wantVals[i])
				}
			}
			if gotStats != wantStats {
				t.Errorf("Stats differ:\ndecorated %+v\nplain     %+v", gotStats, wantStats)
			}
			if c := dec.counts(); c.runs+c.roRuns < n || c.attempts < c.runs+c.roRuns {
				t.Errorf("counts %+v after %d operations", c, n)
			}
			if len(tr.slots[0].local.arr.Vals) == 0 {
				t.Error("no engine spans recorded")
			}
		})
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr, err := newTracer(1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.free()
	dec, _ := newTracedLSA(t, timebase.NewSharedCounter(), tr)
	th := dec.Thread(0)
	if _, ok := th.(engine.AttemptCounter); !ok {
		t.Error("decorated LSA thread hides engine.AttemptCounter")
	}
	cell := dec.NewCell(1)
	if err := th.Run(func(tx engine.Txn) error {
		if _, ok := tx.(engine.IntTxn); !ok {
			t.Error("decorated LSA transaction hides engine.IntTxn")
		}
		return engine.Set(tx, cell, 2)
	}); err != nil {
		t.Fatal(err)
	}
	if s := dec.Stats(); s.BoxedCommits != 0 {
		t.Errorf("int write through the decorator boxed: %+v", s)
	}

	// A thread without AttemptCounter stays without it.
	bare := newTracedEngine(bareEngine{dec}, tr, lOp, false)
	if _, ok := bare.Thread(0).(engine.AttemptCounter); ok {
		t.Error("decorated thread claims engine.AttemptCounter its inner thread lacks")
	}

	plainClock := newTracedTimeBase(timebase.NewSharedCounter(), tr).Clock(0)
	if _, ok := plainClock.(timebase.Reconciler); ok {
		t.Error("decorated shared-counter clock claims timebase.Reconciler")
	}
	sharded := timebase.NewShardedCounter(2, 0)
	decorated := newTracedTimeBase(sharded, tr)
	r, ok := decorated.Clock(0).(timebase.Reconciler)
	if !ok {
		t.Fatal("decorated sharded clock hides timebase.Reconciler")
	}
	// Shard 1 runs ahead; reconciling shard 0's handle must see it.
	other := decorated.Clock(1)
	for i := 0; i < 10; i++ {
		other.GetNewTS()
	}
	if !r.Reconcile() {
		t.Error("Reconcile through the decorator did not advance the stale shard")
	}
}

// bareEngine hides its threads' optional interfaces.
type bareEngine struct{ engine.Engine }

func (e bareEngine) Thread(id int) engine.Thread { return bareThread{e.Engine.Thread(id)} }

type bareThread struct{ engine.Thread }

func TestDecoratedRunAddsNoAllocation(t *testing.T) {
	tr, err := newTracer(1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.free()
	plain, err := engine.New("norec", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := engine.New("norec", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := newTracedEngine(inner, tr, lOp, false)
	allocs := func(e engine.Engine) float64 {
		th, c := e.Thread(0), e.NewCell(0)
		fn := func(tx engine.Txn) error { return engine.Update(tx, c, func(v int) int { return v + 1 }) }
		return testing.AllocsPerRun(1000, func() { th.Run(fn) })
	}
	if p, d := allocs(plain), allocs(dec); d != p {
		t.Errorf("decorated Run allocates %g per call, plain %g", d, p)
	}
}
