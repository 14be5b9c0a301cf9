package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock as nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// layer names a span: one boundary the benchmark times from outside the
// program, named after the module it enters.
type layer uint8

const (
	lOp          layer = iota // the load generator's timed call; the root of each operation
	lEngine                   // engine.Thread Run/RunReadOnly
	lTimebase                 // timebase.Clock GetTime/GetNewTS
	lClientWrite              // client side of the connection: Write
	lClientRead               // client side of the connection: Read (waits for the reply)
	lServer                   // server side: request Read returned → response Write returned
	lService                  // stmserve.Session.Exec
	lDurable                  // durable engine: inner Run returned → Session.Exec returned
	numLayers
)

var layerNames = [numLayers]string{
	lOp: "op", lEngine: "engine.run", lTimebase: "timebase.call",
	lClientWrite: "wire.client_write", lClientRead: "wire.client_read",
	lServer: "wire.server", lService: "service.exec", lDurable: "durable.commit",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed interval of one sampled operation. Spans of one
// operation share op; parent names the layer whose span caused this one
// (the root has parent lOp and name lOp).
type span struct {
	op         uint64
	start, end int64
	name       layer
	parent     layer
	update     bool // root spans only: the operation is an update
}

// spanBuf is one goroutine's preallocated span store.
type spanBuf struct {
	arr     *offHeap[span]
	dropped int
}

func (b *spanBuf) add(s span) {
	if !b.arr.push(s) {
		b.dropped++
	}
}

// slot is the tracing context of one closed-loop worker. The worker
// publishes the id of its sampled operation in op while the operation runs
// (0 when the operation is not sampled); decorators on any goroutine read it
// to tag their spans. Spans from the worker's goroutine go to local, spans
// from the server goroutine that serves the worker's connection to remote,
// so each buffer has a single writer.
type slot struct {
	seq       uint64 // the worker's operation count, for op ids; worker goroutine only
	op        atomic.Uint64
	engineEnd atomic.Int64 // end of the latest sampled engine span
	local     spanBuf
	remote    spanBuf
}

// tracer owns the slots of a traced run. One operation in every `every` is
// sampled for spans; decorators count every operation regardless.
type tracer struct {
	every uint64
	slots []*slot
}

func newTracer(slots int, every uint64, spansPerBuf int) (*tracer, error) {
	t := &tracer{every: every}
	for i := 0; i < slots; i++ {
		sl := &slot{}
		var err error
		if sl.local.arr, err = newOffHeap[span](spansPerBuf); err != nil {
			return nil, err
		}
		if sl.remote.arr, err = newOffHeap[span](spansPerBuf); err != nil {
			return nil, err
		}
		t.slots = append(t.slots, sl)
	}
	return t, nil
}

// slot returns the context of worker id, or nil for threads no worker owns
// (a durable engine's snapshot thread, say).
func (t *tracer) slot(id int) *slot {
	if t == nil || id < 0 || id >= len(t.slots) {
		return nil
	}
	return t.slots[id]
}

// opID builds a sampled operation's id from its worker and sequence number.
func opID(worker int, seq uint64) uint64 { return uint64(worker+1)<<40 | seq }

func (t *tracer) spans() (all []span, dropped int) {
	for _, sl := range t.slots {
		all = append(all, sl.local.arr.Vals...)
		all = append(all, sl.remote.arr.Vals...)
		dropped += sl.local.dropped + sl.remote.dropped
	}
	return all, dropped
}

func (t *tracer) free() {
	for _, sl := range t.slots {
		sl.local.arr.free()
		sl.remote.arr.free()
	}
}

// writeSpans stores spans as gzip-compressed CSV, one span a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	w.WriteString("op,name,parent,update,start_ns,end_ns\n")
	var line []byte
	for _, s := range spans {
		line = strconv.AppendUint(line[:0], s.op, 10)
		line = append(line, ',')
		line = append(line, s.name.String()...)
		line = append(line, ',')
		line = append(line, s.parent.String()...)
		line = append(line, ',')
		line = strconv.AppendBool(line, s.update)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: write %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: write %s: %w", path, err)
	}
	return f.Close()
}

// opTree is one operation's spans with each span's parent index and self
// time: its duration, clipped to its parent's, minus the union of its
// children's clipped intervals.
type opTree struct {
	spans  []span
	parent []int // index into spans; -1 for the root
	self   []int64
	root   int
	// orphans counts spans whose parent layer has no span in the operation;
	// they are attached to the root.
	orphans int
}

// buildTree links one operation's spans. Each span's parent is the span of
// its parent layer that overlaps it most. It returns false when the
// operation has no root span.
func buildTree(spans []span) (opTree, bool) {
	t := opTree{spans: spans, root: -1}
	for i, s := range spans {
		if s.name == lOp {
			t.root = i
			break
		}
	}
	if t.root < 0 {
		return t, false
	}
	t.parent = make([]int, len(spans))
	for i, s := range spans {
		if i == t.root {
			t.parent[i] = -1
			continue
		}
		best, bestOverlap := -1, int64(-1)
		for j, p := range spans {
			if j == i || p.name != s.parent {
				continue
			}
			if ov := overlap(s.start, s.end, p.start, p.end); ov > bestOverlap {
				best, bestOverlap = j, ov
			}
		}
		if best < 0 {
			best = t.root
			t.orphans++
		}
		t.parent[i] = best
	}
	// Clip every span to its parent's clipped interval, top down.
	lo := make([]int64, len(spans))
	hi := make([]int64, len(spans))
	done := make([]bool, len(spans))
	var clip func(i int)
	clip = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		lo[i], hi[i] = spans[i].start, spans[i].end
		if p := t.parent[i]; p >= 0 {
			clip(p)
			lo[i], hi[i] = max(lo[i], lo[p]), min(hi[i], hi[p])
			if hi[i] < lo[i] {
				hi[i] = lo[i]
			}
		}
	}
	for i := range spans {
		clip(i)
	}
	t.self = make([]int64, len(spans))
	var kids [][2]int64
	for i := range spans {
		kids = kids[:0]
		for j, p := range t.parent {
			if p == i {
				kids = append(kids, [2]int64{lo[j], hi[j]})
			}
		}
		t.self[i] = hi[i] - lo[i] - unionLen(kids)
	}
	return t, true
}

// unattributed is the part of the root's duration the self times do not
// sum to. It is 0 when sibling spans are disjoint and negative when they
// overlap, which would count the overlap twice.
func (t opTree) unattributed() int64 {
	r := t.spans[t.root]
	sum := int64(0)
	for _, s := range t.self {
		sum += s
	}
	return r.end - r.start - sum
}

func overlap(a0, a1, b0, b1 int64) int64 {
	if d := min(a1, b1) - max(a0, b0); d > 0 {
		return d
	}
	return 0
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	total := int64(0)
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// class indexes per-class aggregates: reads and updates.
const (
	read = iota
	update
)

// traceSummary aggregates the trees of every sampled operation.
type traceSummary struct {
	ops, orphans, noRoot, dropped int
	rootNS                        [2]int64 // Σ root duration, by class
	selfNS                        [numLayers][2]int64
	durNS                         [numLayers][2]int64
	unattributedNS                int64 // Σ |unattributed| over operations
	// dur and self hold every span's duration and self time, by layer and
	// class, for percentiles.
	dur  [numLayers][2][]int64
	self [numLayers][2][]int64
}

func summarize(spans []span, dropped int) *traceSummary {
	sum := &traceSummary{dropped: dropped}
	slices.SortFunc(spans, func(a, b span) int {
		if a.op != b.op {
			return cmp.Compare(a.op, b.op)
		}
		return cmp.Compare(a.start, b.start)
	})
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		t, ok := buildTree(spans[i:j])
		i = j
		if !ok {
			sum.noRoot++
			continue
		}
		sum.ops++
		sum.orphans += t.orphans
		c := read
		if t.spans[t.root].update {
			c = update
		}
		if u := t.unattributed(); u < 0 {
			sum.unattributedNS -= u
		} else {
			sum.unattributedNS += u
		}
		for k, s := range t.spans {
			d := s.end - s.start
			if k == t.root {
				sum.rootNS[c] += d
			}
			sum.durNS[s.name][c] += d
			sum.selfNS[s.name][c] += t.self[k]
			sum.dur[s.name][c] = append(sum.dur[s.name][c], d)
			sum.self[s.name][c] = append(sum.self[s.name][c], t.self[k])
		}
	}
	for l := range sum.dur {
		for c := range sum.dur[l] {
			slices.Sort(sum.dur[l][c])
			slices.Sort(sum.self[l][c])
		}
	}
	return sum
}

// durs and selfs return a layer's sorted samples over both classes.
func (s *traceSummary) durs(l layer) []int64  { return sortedUnion(s.dur[l][read], s.dur[l][update]) }
func (s *traceSummary) selfs(l layer) []int64 { return sortedUnion(s.self[l][read], s.self[l][update]) }

// share returns the layer's self time as a fraction of all sampled
// operation time.
func (s *traceSummary) share(l layer) float64 {
	return ratio(float64(s.selfNS[l][read]+s.selfNS[l][update]), float64(s.rootNS[read]+s.rootNS[update]))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
