package core

// Tests for the epoch-based recycling of transactions and version nodes:
// nothing a thread retires may come back while another thread that could
// still hold it is inside a transaction, recycling resumes once that thread
// leaves, and a long run keeps a flat heap.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestReclaimWaitsForPinnedThread(t *testing.T) {
	// One version per object: every commit cuts the previous head off at
	// once, so nodes are retired from the very first update.
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	o := NewObject(0)
	writer := rt.Thread(0)
	reader := rt.Thread(1)

	// The reader opens a transaction, reads o's genesis version and parks
	// inside it: it may still dereference that version and anything the
	// writer retires from now on.
	pinned, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		var once sync.Once
		done <- reader.RunReadOnly(func(tx *Tx) error {
			if _, err := tx.Read(o); err != nil {
				return err
			}
			once.Do(func() { close(pinned) })
			<-release
			return nil
		})
	}()
	<-pinned
	epoch := rt.epoch.Load()

	update := func() (*Tx, *version) {
		var cur *Tx
		if err := writer.Run(func(tx *Tx) error {
			cur = tx
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			return tx.Write(o, v.(int)+1)
		}); err != nil {
			t.Fatal(err)
		}
		return cur, o.loc.Load().cur
	}
	seenTx := map[*Tx]bool{}
	seenVer := map[*version]bool{o.loc.Load().cur: true}
	// Enough updates to fill the writer's Tx limbo and to cycle every
	// version node through trim many times over.
	for i := 0; i < 2*txLimbo; i++ {
		tx, head := update()
		if seenTx[tx] {
			t.Fatalf("update %d: Tx %p reused while a pinned thread may hold it", i, tx)
		}
		if seenVer[head] {
			t.Fatalf("update %d: version %p reused while a pinned thread may hold it", i, head)
		}
		seenTx[tx], seenVer[head] = true, true
	}
	if e := rt.epoch.Load(); e > epoch+1 {
		t.Errorf("epoch advanced from %d to %d past a thread pinned at %d", epoch, e, epoch)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the reader gone the writer's limbo drains into new attempts and
	// new heads.
	var reusedTx, reusedVer bool
	for i := 0; i < 4*txLimbo && !(reusedTx && reusedVer); i++ {
		tx, head := update()
		reusedTx = reusedTx || seenTx[tx]
		reusedVer = reusedVer || seenVer[head]
	}
	if !reusedTx {
		t.Error("no retired Tx was reused after the pinned thread left")
	}
	if !reusedVer {
		t.Error("no retired version was reused after the pinned thread left")
	}
}

func TestHeapPlateau(t *testing.T) {
	first, second := time.Second, 3*time.Second
	if testing.Short() {
		first, second = 300*time.Millisecond, 900*time.Millisecond
	}
	const nObjs, workers = 4096, 2
	rt := counterRT()
	objs := make([]*Object, nObjs)
	for i := range objs {
		objs[i] = NewObject(big)
	}
	// Fill every history to MaxVersions first, so the live version count
	// is already at its ceiling when the run starts.
	filler := rt.Thread(workers)
	for _, o := range objs {
		for i := 0; i < rt.MaxVersions(); i++ {
			if err := filler.Run(func(tx *Tx) error { return tx.WriteInt(o, big) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	transfer := func(th *Thread, rng *rand.Rand) error {
		a, b := objs[rng.Intn(nObjs)], objs[rng.Intn(nObjs)]
		return th.Run(func(tx *Tx) error {
			x, _, err := tx.ReadInt(a)
			if err != nil {
				return err
			}
			y, _, err := tx.ReadInt(b)
			if err != nil {
				return err
			}
			if err := tx.WriteInt(a, x-1); err != nil {
				return err
			}
			return tx.WriteInt(b, y+1)
		})
	}

	// The workers hold pause for reading while they run a batch; a sample
	// takes it for writing, so the heap is measured between transactions,
	// not mixed with what the workers allocate during the collection.
	var pause sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pause.RLock()
				for i := 0; i < 64; i++ {
					if err := transfer(th, rng); err != nil {
						t.Error(err)
						break
					}
				}
				pause.RUnlock()
			}
		}(w)
	}
	heap := func() uint64 {
		pause.Lock()
		defer pause.Unlock()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	time.Sleep(first)
	h1 := heap()
	time.Sleep(second - first)
	h2 := heap()
	close(stop)
	wg.Wait()
	lo, hi := min(h1, h2), max(h1, h2)
	t.Logf("live heap %d B at %v, %d B at %v", h1, first, h2, second)
	if float64(hi-lo) > 0.10*float64(lo) {
		t.Errorf("live heap moved from %d B to %d B (> 10%%) between %v and %v", h1, h2, first, second)
	}
}
