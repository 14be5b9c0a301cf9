package core

// Allocation budgets for the small-transaction fast paths. These are the
// ratchet behind the -benchmem trend in the repo-root BenchmarkSmallTxAllocs:
// a regression that reintroduces per-attempt allocations (entry-slice growth,
// per-write version/locator nodes, the commit-timestamp box, per-supersession
// Timestamp boxes, payload boxing on the typed value lane) fails here
// deterministically instead of drifting in a bench snapshot.
//
// Budget accounting: every fast path below is 0 in the steady state.
//
//   - The per-attempt Tx is recycled by its Thread. An attempt that
//     acquired nothing (every read-only one) is reused by the very next
//     attempt; an update attempt waits in the thread's limbo until the
//     reclamation epoch shows that no other thread can still hold it, and
//     keeps its grown entry slice and overflow write slots when reused —
//     so a 64-read audit stops regrowing its access set, too.
//   - Each commit builds one committed-head version node per written object
//     (the committer settles its own writes when the attempt ends). The
//     node trim cuts off the bottom of the history goes to the same limbo
//     and becomes a later head, so the chain turns over without
//     allocating. The locator and the predecessor's fixed upper bound are
//     embedded in the node.
//
// allocBudget first runs the loop long enough for the limbo to start
// handing nodes back (a node waits a few epoch advances, and a thread
// advances the epoch every few attempts), then measures. A single leaked
// allocation in 200 runs exceeds a budget of 0.
//
// Values are written far outside the runtime's small-int interface cache
// (> 2⁴⁰) through the typed lane (ReadValue/WriteInt), so these budgets
// prove the unboxed int lane end to end: zero boxing allocations per int
// write on the hottest path.

import (
	"testing"
)

// allocBudget asserts the steady-state allocations per run. It reports the
// measured value so a failure shows the regression size immediately.
func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	// Untimed warm rounds build thread-local state (clocks, spare maps) and
	// fill the reclamation limbo before AllocsPerRun's own warmup run.
	for i := 0; i < warmRounds; i++ {
		f()
	}
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, got, budget)
	}
}

// warmRounds is enough attempts for recycled nodes to come back: each
// waits at most three epoch advances, and a lone thread advances the epoch
// every advanceEvery attempts.
const warmRounds = 16 * advanceEvery

// big keeps every written value far outside the runtime's small-int cache,
// so any boxing on the path would show up as an allocation.
const big = int64(1) << 40

func TestAllocBudgetReadOnlySmall(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(big+1), NewObject(big+2)
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		if _, _, err := tx.ReadInt(a); err != nil {
			return err
		}
		_, _, err := tx.ReadInt(b)
		return err
	}
	allocBudget(t, "core read-only 2 reads", 0, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetReadOnlyAudit(t *testing.T) {
	rt := counterRT()
	objs := make([]*Object, 64)
	for i := range objs {
		objs[i] = NewObject(big + int64(i))
	}
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		for _, o := range objs {
			if _, _, err := tx.ReadInt(o); err != nil {
				return err
			}
		}
		return nil
	}
	allocBudget(t, "core read-only 64 reads", 0, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateOne(t *testing.T) {
	rt := counterRT()
	a := NewObject(big)
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		v, _, err := tx.ReadInt(a)
		if err != nil {
			return err
		}
		return tx.WriteInt(a, big+(v+1)%100)
	}
	allocBudget(t, "core 1-write update", 0, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateSmall(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(big), NewObject(big)
	th := rt.Thread(0)
	bump := func(tx *Tx, o *Object) error {
		v, _, err := tx.ReadInt(o)
		if err != nil {
			return err
		}
		return tx.WriteInt(o, big+(v+1)%100)
	}
	fn := func(tx *Tx) error {
		if err := bump(tx, a); err != nil {
			return err
		}
		return bump(tx, b)
	}
	allocBudget(t, "core 2-write update", 0, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}
