package main

import (
	"sync"
	"testing"
)

// TestWorkloadsRunAndVerify drives every workload, untraced and traced, for
// a fixed number of operations per worker and requires every per-operation
// check and the final-state checks to pass. Traced, every operation is
// sampled and must yield a well-formed span tree.
func TestWorkloadsRunAndVerify(t *testing.T) {
	const opsPerWorker = 300
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var tr *tracer
				if traced {
					var err error
					if tr, err = newTracer(w.workers, 1, 1<<16); err != nil {
						t.Fatal(err)
					}
					defer tr.free()
				}
				sys, err := w.setup(setupConfig{tr: tr, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				ds := sys.workers(3)
				if len(ds) != w.workers {
					t.Fatalf("%d workers, want %d", len(ds), w.workers)
				}
				var wg sync.WaitGroup
				for i, d := range ds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sl := tr.slot(i)
						for n := uint64(1); n <= opsPerWorker; n++ {
							update := d.next()
							var op uint64
							if sl != nil {
								op = opID(i, n)
								sl.op.Store(op)
							}
							start := now()
							err := d.call()
							if sl != nil {
								sl.local.add(span{op: op, start: start, end: now(), name: lOp, parent: lOp, update: update})
								sl.op.Store(0)
							}
							if err != nil || !d.check() {
								t.Errorf("worker %d op %d failed: %v", i, n, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := sys.verify(); err != nil {
					t.Error(err)
				}
				if err := sys.close(); err != nil {
					t.Error(err)
				}
				if !traced {
					return
				}
				spans, dropped := tr.spans()
				sum := summarize(spans, dropped)
				if sum.ops != w.workers*opsPerWorker || sum.noRoot != 0 || sum.orphans != 0 || sum.dropped != 0 {
					t.Errorf("trace: ops=%d noRoot=%d orphans=%d dropped=%d", sum.ops, sum.noRoot, sum.orphans, sum.dropped)
				}
				if len(sum.durs(lEngine)) == 0 {
					t.Error("no engine spans")
				}
				if c := sys.probes().snapshot(); c.threads.runs+c.threads.roRuns < uint64(w.workers*opsPerWorker) {
					t.Errorf("engine counted %d runs for %d operations", c.threads.runs+c.threads.roRuns, w.workers*opsPerWorker)
				}
			})
		}
	}
}
