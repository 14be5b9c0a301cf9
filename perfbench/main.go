// Command perfbench is the repository's benchmark. One invocation sets up
// one workload, drives it closed-loop for a fixed time, checks every result,
// and prints its metrics as the last line of standard output:
//
//	perfbench --workload stm-bank --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured without any
// decorator. With --trace 1 it runs the workload twice, untraced and then
// with the tracing decorators, and prints the per-layer metrics of the
// traced run. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
)

const (
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median.
	setups = 9
	// warmup runs before every measured phase, so caches, version
	// histories and the WAL's first segment exist before timing starts.
	warmup = time.Second
	// samplesPerWorker bounds one worker's latency samples per class.
	samplesPerWorker = 1 << 24
	// spansPerBuffer bounds one goroutine's spans in a traced run.
	spansPerBuffer = 1 << 20
	// buildDir holds everything a run writes, relative to the checkout.
	buildDir = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: stm-bank, wire-kv or durable-transfer")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, dur time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	report := map[string]any{
		"workload": w.name, "seed": seed, "seconds": dur.Seconds(), "workers": w.workers,
		"host": hostFacts(dir, traced),
	}
	var res *result
	if traced {
		res, err = runTraced(w, seed, dur, dir, report)
	} else {
		res, err = runUntraced(w, seed, dur, dir, report)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if out, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("final-state check failed; see the report line")
	}
	return nil
}

// runUntraced sets the workload up `setups` times, keeps the last instance,
// and measures it: the end-to-end metrics.
func runUntraced(w *workload, seed uint64, dur time.Duration, dir string, report map[string]any) (*result, error) {
	var times []float64
	var sys system
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		s, err := w.setup(setupConfig{dir: dir})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			continue
		}
		sys = s
	}
	ph, err := measure(sys, seed, dur, nil)
	verr := sys.verify()
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	report["setup_s"] = times
	report["phase"] = ph.summary()
	res := &result{Correct: verr == nil, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if verr != nil {
		report["verify_error"] = verr.Error()
	}
	m := res.Metrics
	m["setup_s"] = metric{median(times), "s"}
	m["ops_per_s"] = metric{ph.opsPerSec(), "1/s"}
	// Latency percentiles drift by more than any bound allows between sets
	// of runs, with the host's wake-up and fsync costs, so they are
	// per-layer metrics (op.*); the report line still carries them with
	// their sample counts. With a fixed number of operations outstanding,
	// ops_per_s carries the mean latency.
	for _, q := range []struct {
		name string
		set  []uint32
		p    float64
	}{
		{"p50_us", ph.all, 0.5}, {"update_p50_us", ph.upd, 0.5}, {"read_p50_us", ph.rd, 0.5},
		{"p99_us", ph.all, 0.99}, {"update_p99_us", ph.upd, 0.99}, {"read_p99_us", ph.rd, 0.99},
	} {
		report[q.name] = percentile(q.set, q.p)
	}
	m["heap_peak_mb"] = metric{float64(ph.heapPeak) / (1 << 20), "MB"}
	return res, nil
}

// runTraced measures an undecorated and a decorated instance of the
// workload and derives the per-layer metrics from the decorated one. The
// two alternate — undecorated, decorated, decorated, undecorated, each for
// half of dur — so a steady drift of the host's speed cancels out of
// trace.overhead.
func runTraced(w *workload, seed uint64, dur time.Duration, dir string, report map[string]any) (*result, error) {
	tr, err := newTracer(w.workers, w.sampleEvery, spansPerBuffer)
	if err != nil {
		return nil, err
	}
	defer tr.free()
	var base, ph phase
	var verr error
	var wal walTotals
	for _, traced := range []bool{false, true, true, false} {
		cfg := setupConfig{dir: dir}
		if traced {
			cfg.tr = tr
		}
		sys, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p, err := measure(sys, seed, dur/2, cfg.tr)
		verr = errors.Join(verr, sys.verify())
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if !traced {
			base.add(p)
			continue
		}
		ph.add(p)
		if d, ok := sys.(*durableKV); ok {
			wal.bytes += d.walBytes
			wal.commits += d.commits
			wal.recoverNS += d.recoverNS
		}
	}
	spans, dropped := tr.spans()
	sum := summarize(spans, dropped)
	spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.csv.gz", w.name, seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}

	lm, err := layerMetrics(&ph, &base, sum, wal, report)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   verr == nil,
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   lm,
	}
	if verr != nil {
		report["verify_error"] = verr.Error()
	}
	report["untraced_phase"] = base.summary()
	report["traced_phase"] = ph.summary()
	report["trace"] = map[string]any{
		"sample_every": w.sampleEvery, "sampled_ops": sum.ops, "spans": len(spans),
		"dropped_spans": sum.dropped, "ops_without_root": sum.noRoot, "orphan_spans": sum.orphans,
		"file": spanFile,
	}
	return res, nil
}

// walTotals sum what the durable workload's restart checks measured.
type walTotals struct {
	bytes, recoverNS int64
	commits          uint64
}

// layerMetrics derives the per-layer metrics of a traced phase. Counts and
// engine statistics cover every operation; times come from the sampled
// operations' spans. Absolute times of layers a workload lacks would read 0
// on every run, so the per-layer set states layer times as shares of
// operation time; the report line carries the absolute percentiles.
func layerMetrics(ph, base *phase, sum *traceSummary, wal walTotals, report map[string]any) (map[string]metric, error) {
	m := map[string]metric{}
	// Operation latencies, too noisy between sets of runs to bound as
	// end-to-end metrics, from the untraced phase.
	for _, q := range []struct {
		name string
		set  []uint32
		p    float64
	}{
		{"op.p50_us", base.all, 0.5}, {"op.update_p50_us", base.upd, 0.5}, {"op.read_p50_us", base.rd, 0.5},
		{"op.p99_us", base.all, 0.99}, {"op.update_p99_us", base.upd, 0.99}, {"op.read_p99_us", base.rd, 0.99},
	} {
		v, err := reportable(q.name, q.set, q.p)
		if err != nil {
			return nil, err
		}
		m[q.name] = metric{v.Value / 1e3, "us"}
		report[q.name] = v
	}
	ops := float64(ph.attempted)
	c := ph.counts
	st := ph.stats
	attempts := float64(c.threads.attempts)
	per := func(name string, n uint64, den float64, unit string) {
		m[name] = metric{ratio(float64(n), den), unit}
	}
	abs := map[string]quantile{}
	q := func(name string, sorted []int64, p float64) quantile {
		v := percentile(sorted, p)
		v.Value /= 1e3
		abs[name] = v
		return v
	}

	engRun := sum.durs(lEngine)
	if _, err := reportable("engine.run_us.p99", engRun, 0.99); err != nil {
		return nil, err
	}
	m["engine.run_us.p50"] = metric{q("engine.run_us.p50", engRun, 0.5).Value, "us"}
	m["engine.run_us.p99"] = metric{q("engine.run_us.p99", engRun, 0.99).Value, "us"}
	m["engine.self_share"] = metric{sum.share(lEngine), "ratio"}
	per("engine.attempts_per_op", c.threads.attempts, ops, "count")
	per("engine.ro_attempts_per_op", c.threads.roAttempts, ops, "count")
	per("engine.aborts_per_attempt.snapshot", st.AbortSnapshot, attempts, "ratio")
	per("engine.aborts_per_attempt.validation", st.AbortValidation, attempts, "ratio")
	per("engine.aborts_per_attempt.conflict", st.AbortConflict, attempts, "ratio")
	per("engine.aborts_per_attempt.contention", st.AbortContention, attempts, "ratio")
	per("engine.extensions_per_op", st.Extensions, ops, "count")

	per("timebase.get_time_per_op", c.clocks.getTime, ops, "count")
	per("timebase.get_new_ts_per_commit", c.clocks.getNewTS, float64(c.threads.runs), "count")
	m["timebase.self_share"] = metric{sum.share(lTimebase), "ratio"}
	q("timebase.call_us.p50", sum.durs(lTimebase), 0.5)

	hasWire := len(sum.durs(lServer)) > 0
	m["wire.net_share"] = metric{sum.share(lClientRead), "ratio"}
	m["wire.server_self_share"] = metric{sum.share(lServer), "ratio"}
	clientSelf, rtt, engineRTT := 0.0, quantile{}, 0.0
	if hasWire {
		clientSelf = sum.share(lOp) + sum.share(lClientWrite)
		rtt = q("wire.client_rtt_us.p50", sum.durs(lOp), 0.5)
		q("wire.client_rtt_us.p99", sum.durs(lOp), 0.99)
		q("wire.server_busy_us.p50", sum.durs(lServer), 0.5)
		q("wire.server_self_us.p50", sum.selfs(lServer), 0.5)
		q("wire.net_us.p50", sum.selfs(lClientRead), 0.5)
		engineRTT = ratio(abs["engine.run_us.p50"].Value, rtt.Value)
	}
	m["wire.client_self_share"] = metric{clientSelf, "ratio"}
	m["wire.engine_rtt_ratio"] = metric{engineRTT, "ratio"}
	per("wire.server_reads_per_req", c.srvReads, ops, "count")
	per("wire.server_writes_per_resp", c.srvWrites, ops, "count")
	per("wire.bytes_per_op", c.wireBytes, ops, "B")

	m["service.self_share"] = metric{sum.share(lService), "ratio"}
	q("service.exec_us.p50", sum.durs(lService), 0.5)
	q("service.exec_us.p99", sum.durs(lService), 0.99)
	q("service.self_us.p50", sum.selfs(lService), 0.5)

	m["durable.commit_share"] = metric{ratio(float64(sum.durNS[lDurable][update]), float64(sum.rootNS[update])), "ratio"}
	q("durable.commit_wait_us.p50", sum.dur[lDurable][update], 0.5)
	q("durable.commit_wait_us.p99", sum.dur[lDurable][update], 0.99)
	q("durable.read_us.p50", sum.dur[lService][read], 0.5)
	per("engine.attempts_per_update", c.threads.attempts-c.threads.roAttempts, float64(ph.updates), "count")
	walMiB := float64(wal.bytes) / (1 << 20)
	m["durable.wal_bytes_per_commit"] = metric{ratio(float64(wal.bytes), float64(wal.commits)), "B"}
	m["durable.recover_mib_per_s"] = metric{ratio(walMiB, float64(wal.recoverNS)/1e9), "MiB/s"}
	if wal.commits > 0 {
		report["durable"] = map[string]any{
			"wal_bytes": wal.bytes, "commits": wal.commits, "recover_ms": float64(wal.recoverNS) / 1e6,
			"recover_ms_per_mib": ratio(float64(wal.recoverNS)/1e6, walMiB),
		}
	}

	rt := ph.rt
	per("gc.allocs_per_op", rt.allocs, float64(ph.completed()), "count")
	m["gc.cycles_per_kop"] = metric{ratio(float64(rt.gcCycles)*1000, ops), "count"}
	m["gc.pause_share"] = metric{ratio(float64(rt.pauseNS), float64(ph.elapsed)), "ratio"}
	m["gc.cpu_share"] = metric{ratio(float64(rt.gcCPUNS), float64(rt.cpuNS)), "ratio"}

	m["loadgen.gap_us.mean"] = metric{ph.gapMeanUS(), "us"}
	m["trace.overhead"] = metric{ratio(ph.opsPerSec(), base.opsPerSec()), "ratio"}
	m["trace.unattributed_share"] = metric{ratio(float64(sum.unattributedNS), float64(sum.rootNS[read]+sum.rootNS[update])), "ratio"}

	report["layer_times_us"] = abs
	return m, nil
}

// reportable returns the p-quantile of sorted latencies in ns, or an error
// when too few samples lie beyond it.
func reportable[T sample](name string, sorted []T, p float64) (quantile, error) {
	q := percentile(sorted, p)
	if !q.Reportable() {
		return q, fmt.Errorf("%s: only %d of %d samples lie beyond it; run longer", name, q.Beyond, q.N)
	}
	return q, nil
}

// phase is one measured interval of closed-loop load.
type phase struct {
	elapsed           time.Duration
	attempted, failed uint64
	updates           uint64
	all, upd, rd      []uint32 // sorted latencies, ns
	gapNS, gaps       int64
	heapPeak          uint64
	rt                runtimeDelta
	stats             engine.Stats
	counts            counters
}

// add folds o into p, as if both had been one phase.
func (p *phase) add(o *phase) {
	p.elapsed += o.elapsed
	p.attempted += o.attempted
	p.failed += o.failed
	p.updates += o.updates
	p.all = sortedUnion(p.all, o.all)
	p.upd = sortedUnion(p.upd, o.upd)
	p.rd = sortedUnion(p.rd, o.rd)
	p.gapNS += o.gapNS
	p.gaps += o.gaps
	p.heapPeak = max(p.heapPeak, o.heapPeak)
	p.rt = p.rt.combine(o.rt, add)
	p.stats = combineStats(p.stats, o.stats, add)
	p.counts = p.counts.combine(o.counts, add)
}

func (p *phase) completed() uint64 { return p.attempted - p.failed }

func (p *phase) opsPerSec() float64 {
	return ratio(float64(p.completed()), p.elapsed.Seconds())
}

func (p *phase) gapMeanUS() float64 { return ratio(float64(p.gapNS), float64(p.gaps)) / 1e3 }

func (p *phase) summary() map[string]any {
	return map[string]any{
		"elapsed_s": p.elapsed.Seconds(), "attempted": p.attempted, "failed": p.failed,
		"fail_ratio": ratio(float64(p.failed), float64(p.attempted)),
		"updates":    p.updates, "ops_per_s": p.opsPerSec(),
		"gc_cycles": p.rt.gcCycles, "allocs": p.rt.allocs, "heap_peak_bytes": p.heapPeak,
		"engine_stats": p.stats,
	}
}

// recorder is one worker's tally; its sample arrays live off the heap.
type recorder struct {
	upd, rd           *offHeap[uint32]
	attempted, failed uint64
	updates           uint64
	gapNS, gaps       int64
	full              bool
}

func (r *recorder) add(update bool, ns int64, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	arr := r.rd
	if update {
		r.updates++
		arr = r.upd
	}
	if !arr.push(uint32(min(ns, math.MaxUint32))) {
		r.full = true
	}
}

// measure warms the system up, then drives it for dur with one goroutine
// per worker, each keeping one operation outstanding.
func measure(sys system, seed uint64, dur time.Duration, tr *tracer) (*phase, error) {
	ds := sys.workers(seed)
	recs := make([]*recorder, len(ds))
	for i := range recs {
		r := &recorder{}
		var err error
		if r.upd, err = newOffHeap[uint32](samplesPerWorker); err != nil {
			return nil, err
		}
		if r.rd, err = newOffHeap[uint32](samplesPerWorker); err != nil {
			return nil, err
		}
		defer r.upd.free()
		defer r.rd.free()
		recs[i] = r
	}
	runtime.GC()
	drive(ds, warmup, nil, nil)

	ph := &phase{}
	st0, c0 := sys.engineStats(), sys.probes().snapshot()
	rt0 := readRuntime()
	sampler := startHeapSampler()
	start := time.Now()
	drive(ds, dur, recs, tr)
	ph.elapsed = time.Since(start)
	ph.heapPeak = sampler.stop()
	ph.rt = readRuntime().combine(rt0, sub)
	ph.stats = combineStats(sys.engineStats(), st0, sub)
	ph.counts = sys.probes().snapshot().combine(c0, sub)

	var upd, rd [][]uint32
	for _, r := range recs {
		if r.full {
			return nil, fmt.Errorf("more than %d operations of one class on one worker", samplesPerWorker)
		}
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.updates += r.updates
		ph.gapNS += r.gapNS
		ph.gaps += r.gaps
		upd = append(upd, r.upd.Vals)
		rd = append(rd, r.rd.Vals)
	}
	ph.upd = sortedUnion(upd...)
	ph.rd = sortedUnion(rd...)
	ph.all = sortedUnion(ph.upd, ph.rd)
	if ph.attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	return ph, nil
}

// drive runs every worker on its own goroutine for dur and waits for all
// of them. With recs nil the operations are not recorded (warm-up).
func drive(ds []worker, dur time.Duration, recs []*recorder, tr *tracer) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			loop(i, d, &stop, rec, tr)
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
}

func loop(i int, d worker, stop *atomic.Bool, rec *recorder, tr *tracer) {
	sl := tr.slot(i)
	prevEnd := int64(-1)
	for !stop.Load() {
		update := d.next()
		var op uint64
		if sl != nil {
			if sl.seq++; sl.seq%tr.every == 0 {
				op = opID(i, sl.seq)
				sl.op.Store(op)
			}
		}
		start := now()
		err := d.call()
		end := now()
		if op != 0 {
			sl.local.add(span{op: op, start: start, end: end, name: lOp, parent: lOp, update: update})
			sl.op.Store(0)
		}
		ok := err == nil && d.check()
		if rec == nil {
			continue
		}
		rec.add(update, end-start, ok)
		if prevEnd >= 0 {
			rec.gapNS += start - prevEnd
			rec.gaps++
		}
		prevEnd = end
	}
}

// combineStats applies f to every counter of a and b: sub for the change
// between two quiescent points, add to sum two phases.
func combineStats(a, b engine.Stats, f func(x, y uint64) uint64) engine.Stats {
	return engine.Stats{
		Commits: f(a.Commits, b.Commits), Aborts: f(a.Aborts, b.Aborts),
		AbortSnapshot: f(a.AbortSnapshot, b.AbortSnapshot), AbortValidation: f(a.AbortValidation, b.AbortValidation),
		AbortConflict: f(a.AbortConflict, b.AbortConflict), AbortExternal: f(a.AbortExternal, b.AbortExternal),
		AbortContention: f(a.AbortContention, b.AbortContention), AbortEscalation: f(a.AbortEscalation, b.AbortEscalation),
		UserAborts: f(a.UserAborts, b.UserAborts), Extensions: f(a.Extensions, b.Extensions),
		Helps: f(a.Helps, b.Helps), EnemyAborts: f(a.EnemyAborts, b.EnemyAborts),
		BoxedCommits: f(a.BoxedCommits, b.BoxedCommits),
	}
}

func add(x, y uint64) uint64 { return x + y }
func sub(x, y uint64) uint64 { return x - y }

// runtimeDelta is the change of the Go runtime's counters over a phase,
// read through runtime/metrics and debug.ReadGCStats, neither of which
// stops the world.
type runtimeDelta struct {
	allocs, gcCycles uint64
	gcCPUNS, cpuNS   uint64 // GC and total CPU time, estimated by the runtime
	pauseNS          uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return runtimeDelta{
		allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPUNS: uint64(s[2].Value.Float64() * 1e9), cpuNS: uint64(s[3].Value.Float64() * 1e9),
		pauseNS: uint64(gc.PauseTotal),
	}
}

func (r runtimeDelta) combine(o runtimeDelta, f func(x, y uint64) uint64) runtimeDelta {
	return runtimeDelta{
		allocs: f(r.allocs, o.allocs), gcCycles: f(r.gcCycles, o.gcCycles),
		gcCPUNS: f(r.gcCPUNS, o.gcCPUNS), cpuNS: f(r.cpuNS, o.cpuNS),
		pauseNS: f(r.pauseNS, o.pauseNS),
	}
}

// heapSampler tracks the peak live heap — the bytes the last completed GC
// found reachable — every few milliseconds.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.done
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostFacts records what the numbers depend on. The timer overshoot is
// measured in traced runs only; it explains why the load is closed-loop.
func hostFacts(dir string, traced bool) map[string]any {
	f := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"wal_fs": fsName(dir), "wal_fsync": durableFsync,
	}
	if traced {
		f["sleep_50us_overshoot_us_p50"] = sleepOvershoot()
	}
	return f
}

func sleepOvershoot() float64 {
	var over []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		over = append(over, float64(time.Since(start)-50*time.Microsecond)/1e3)
	}
	return median(over)
}

// fsName names the filesystem holding dir, from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
