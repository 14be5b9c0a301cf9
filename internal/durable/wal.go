// The segmented write-ahead log: ordered appends, fsync policies, segment
// rotation, crashpoint fault injection, and the recovery-on-boot scan.
package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/val"
)

// Fsync policy names, as accepted by engine.Options.Fsync and reported by
// DurabilityInfo.FsyncPolicy.
const (
	FsyncAlways = "always"
	FsyncGroup  = "group"
	FsyncNever  = "never"
)

const (
	segmentMagic  = "DWAL0001"
	snapshotMagic = "DSNAP001"
	snapshotName  = "snapshot"
	snapshotTmp   = "snapshot.tmp"
	segmentPrefix = "wal-"
	segmentSuffix = ".log"

	// defaultSegmentBytes rotates segments at 4 MiB; tests shrink it to
	// force rotation with tiny workloads.
	defaultSegmentBytes = 4 << 20
)

var (
	// ErrCrashed is the sticky error a Log reports after a crashpoint fired
	// (or after an I/O error): the in-memory engine state may be ahead of
	// the disk image, so the engine refuses all further transactions. The
	// only way forward is to discard the engine and recover from the
	// directory.
	ErrCrashed = errors.New("durable: write-ahead log crashed")
	// ErrClosed reports use after an orderly WALClose.
	ErrClosed = errors.New("durable: write-ahead log closed")
)

// Crashpoints is the deterministic fault-injection seam inside the WAL
// writer. Each point fires at most once; after firing the Log wedges with
// ErrCrashed, simulating the process dying at exactly that instant (the
// in-memory engine "loses its memory" — tests discard it and recover a
// fresh one from the directory). Zero value = no faults.
type Crashpoints struct {
	// AfterPartialRecord: the next commit writes only PartialBytes bytes of
	// its frame (synced, so the torn prefix is exactly what recovery sees),
	// then crashes — the torn-final-record case.
	AfterPartialRecord bool
	// PartialBytes is how many bytes of the frame AfterPartialRecord leaves
	// behind (clamped to frame length − 1 so the record is genuinely torn).
	PartialBytes int
	// AfterRecordBeforeSync: the next commit writes its full frame to the
	// OS but crashes before fsync — the record may or may not survive a
	// real power cut; in-process recovery sees it (recovering more than was
	// acknowledged is always legal).
	AfterRecordBeforeSync bool
	// MidSnapshotRename: the next snapshot crashes after writing and
	// syncing snapshot.tmp but before the atomic rename — boot must ignore
	// and clean up the leftover tmp.
	MidSnapshotRename bool
	// AfterSnapshotRename: the next snapshot crashes after the rename but
	// before old-segment truncation — boot must skip the segment records
	// the snapshot already covers.
	AfterSnapshotRename bool

	mu    sync.Mutex
	fired string
}

// Crashpoint names, as reported by Fired.
const (
	CrashAfterPartialRecord    = "after-partial-record"
	CrashAfterRecordBeforeSync = "after-record-before-sync"
	CrashMidSnapshotRename     = "mid-snapshot-rename"
	CrashAfterSnapshotRename   = "after-snapshot-rename"
)

// fire consumes the named point if armed (each fires at most once).
func (c *Crashpoints) fire(name string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var armed *bool
	switch name {
	case CrashAfterPartialRecord:
		armed = &c.AfterPartialRecord
	case CrashAfterRecordBeforeSync:
		armed = &c.AfterRecordBeforeSync
	case CrashMidSnapshotRename:
		armed = &c.MidSnapshotRename
	case CrashAfterSnapshotRename:
		armed = &c.AfterSnapshotRename
	}
	if armed == nil || !*armed {
		return false
	}
	*armed = false
	c.fired = name
	return true
}

// Fired returns the name of the crashpoint that fired, or "".
func (c *Crashpoints) Fired() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// logConfig parameterizes openLog.
type logConfig struct {
	dir          string
	policy       string // FsyncAlways | FsyncGroup | FsyncNever
	segmentBytes int64
	startSeq     uint64 // first seq this log will accept (recovered lastSeq+1)
	crash        *Crashpoints
}

// Log is the append side of the WAL. Commit acknowledgments respect the
// fsync policy: under "always" and "group" a Commit that returns nil has
// been fsynced; under "never" it has only been buffered.
//
// Appends are sequenced: Commit(seq, …) blocks until every lower seq has
// been appended, so the on-disk log is always a dense prefix of the commit
// order — recovery can treat a sequence gap as corruption.
//
// Group commit is leader-based (DeWitt et al., SIGMOD'84): the first
// committer that finds its record unsynced and no fsync in flight becomes
// the leader, flushes the buffer and fsyncs with l.mu released; committers
// that append meanwhile wait, and when the fsync lands one of them leads the
// next batch. Because the leader syncs l.f outside the mutex, every other
// path that touches l.f or l.buf waits out the in-flight fsync first
// (awaitSync).
type Log struct {
	cfg logConfig

	mu        sync.Mutex
	seqCond   *sync.Cond // append turnstile: waits for nextSeq == seq
	flushCond *sync.Cond // group-commit ack: flushedSeq ≥ seq, or the leader's fsync ended

	f           *os.File
	buf         *bufio.Writer
	segSize     int64  // bytes written into the current segment
	nextSeq     uint64 // seq the next append must carry
	appendedSeq uint64 // highest seq written into buf
	flushedSeq  uint64 // highest seq known flushed+synced (tracked under group/always)
	syncing     bool   // a group-commit leader is fsyncing l.f with l.mu released
	sticky      error  // ErrCrashed / wrapped I/O error; wedges the log
	closed      bool
	// commits counts records this Log appended; fsyncs counts the segment
	// fsyncs that made records durable (leader, always, rotation, Sync,
	// Close). Their ratio is the group-commit batch size.
	commits uint64
	fsyncs  uint64
	// tap, when set, observes every appended frame in seq order (the
	// replication feed). Called with l.mu held, immediately after the
	// append; the frame bytes are only valid during the call. The tap must
	// never block and never touch the Log.
	tap func(seq uint64, frame []byte)

	// snapMu serializes snapshot installs — compaction and a follower's
	// replica snapshot share snapshot.tmp — and snapSeq is the watermark of
	// the last one installed, so an older snapshot never replaces a newer.
	snapMu  sync.Mutex
	snapSeq uint64
}

func openLog(cfg logConfig) (*Log, error) {
	if cfg.segmentBytes <= 0 {
		cfg.segmentBytes = defaultSegmentBytes
	}
	switch cfg.policy {
	case FsyncAlways, FsyncGroup, FsyncNever:
	case "":
		cfg.policy = FsyncGroup
	default:
		return nil, fmt.Errorf("durable: unknown fsync policy %q", cfg.policy)
	}
	l := &Log{
		cfg:         cfg,
		nextSeq:     cfg.startSeq,
		appendedSeq: cfg.startSeq - 1,
		flushedSeq:  cfg.startSeq - 1,
	}
	l.seqCond = sync.NewCond(&l.mu)
	l.flushCond = sync.NewCond(&l.mu)
	if err := l.openSegment(cfg.startSeq); err != nil {
		return nil, err
	}
	return l, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, firstSeq, segmentSuffix)
}

// openSegment finalizes the current segment (if any) and starts a fresh one
// whose name records the first seq it will hold. Finalized segments are
// always flushed and synced, whatever the policy — so only the final segment
// of a log can ever be torn. Called with l.mu held and no fsync in flight
// (or before the Log is shared).
func (l *Log) openSegment(firstSeq uint64) error {
	if l.f != nil {
		if err := l.buf.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.fsyncs++
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.cfg.dir, segmentName(firstSeq))
	// The name can pre-exist only if that segment held zero records (boot
	// reuses firstSeq = lastSeq+1, which lands inside an old segment only
	// when the old segment is empty), so truncating is safe.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segmentMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.cfg.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.buf = bufio.NewWriterSize(f, 1<<16)
	l.segSize = int64(len(segmentMagic))
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fail wedges the log with err and wakes every waiter. Called with l.mu held.
func (l *Log) fail(err error) {
	if l.sticky == nil {
		l.sticky = err
	}
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
}

// awaitSync waits until no group-commit leader is fsyncing, so the caller
// may flush, sync, rotate or close l.f. Called with l.mu held.
func (l *Log) awaitSync() {
	for l.syncing {
		l.flushCond.Wait()
	}
}

// leadGroupFlush is one group-commit leader turn: flush everything appended
// so far, fsync it with l.mu released so later committers can append the
// next batch meanwhile, then publish the new flushedSeq and wake every
// waiter. An fsync error wedges the log, so the waiters wake with the sticky
// error. Called with l.mu held and no fsync in flight.
func (l *Log) leadGroupFlush() {
	target := l.appendedSeq
	l.syncing = true
	err := l.buf.Flush()
	if err == nil {
		f := l.f
		l.mu.Unlock()
		err = f.Sync()
		l.mu.Lock()
	}
	l.syncing = false
	if err != nil {
		l.fail(fmt.Errorf("durable: group fsync: %w", err))
		return
	}
	l.fsyncs++
	l.flushedSeq = max(l.flushedSeq, target)
	l.flushCond.Broadcast()
}

// Err returns the sticky crash/I/O error, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sticky
}

// usable reports why a new update transaction must be refused: the sticky
// crash error, ErrClosed after an orderly close, or nil.
func (l *Log) usable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// Commit appends the redo frame for seq (payload pre-encoded by the caller,
// with frameHeaderLen reserved bytes up front) and blocks per the fsync
// policy until the record is acknowledged durable: "always" fsyncs inline,
// "group" leads or joins a group-commit fsync (see Log), "never" returns at
// once. It returns the frame length appended (the compaction trigger's byte
// feed).
func (l *Log) Commit(seq uint64, frame []byte) (int64, error) {
	frame = frameAround(frame)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sticky == nil && !l.closed && l.nextSeq != seq {
		l.seqCond.Wait()
	}
	if l.sticky != nil {
		return 0, l.sticky
	}
	if l.closed {
		return 0, ErrClosed
	}

	if l.cfg.crash.fire(CrashAfterPartialRecord) {
		l.awaitSync()
		// Leave exactly PartialBytes of the frame behind, synced, then
		// wedge: the deterministic torn-final-record fault.
		cut := l.cfg.crash.PartialBytes
		if cut >= len(frame) {
			cut = len(frame) - 1
		}
		if cut < 0 {
			cut = 0
		}
		if err := l.buf.Flush(); err == nil {
			if _, err = l.f.Write(frame[:cut]); err == nil {
				err = l.f.Sync()
			}
			if err != nil {
				l.fail(fmt.Errorf("durable: crashpoint write: %w", err))
				return 0, l.sticky
			}
		}
		l.fail(ErrCrashed)
		return 0, ErrCrashed
	}

	if _, err := l.buf.Write(frame); err != nil {
		l.fail(fmt.Errorf("durable: append: %w", err))
		return 0, l.sticky
	}
	l.segSize += int64(len(frame))
	l.appendedSeq = seq
	l.nextSeq = seq + 1
	l.commits++
	if l.tap != nil {
		// Under l.mu, so the tap sees frames strictly in seq order — the
		// property the replication stream inherits from the sequencer.
		l.tap(seq, frame)
	}
	l.seqCond.Broadcast()

	if l.cfg.crash.fire(CrashAfterRecordBeforeSync) {
		// Full frame reaches the OS, no fsync: after a real power cut the
		// record's fate would be undecided; in-process it survives.
		l.awaitSync()
		if err := l.buf.Flush(); err != nil {
			l.fail(fmt.Errorf("durable: crashpoint flush: %w", err))
			return 0, l.sticky
		}
		l.fail(ErrCrashed)
		return 0, ErrCrashed
	}

	switch l.cfg.policy {
	case FsyncAlways:
		if err := l.buf.Flush(); err == nil {
			err = l.f.Sync()
			if err != nil {
				l.fail(fmt.Errorf("durable: fsync: %w", err))
				return 0, l.sticky
			}
		} else {
			l.fail(fmt.Errorf("durable: flush: %w", err))
			return 0, l.sticky
		}
		l.fsyncs++
		l.flushedSeq = seq
	case FsyncNever:
		// Acknowledge immediately; acknowledged commits can be lost.
	case FsyncGroup:
		for l.sticky == nil && l.flushedSeq < seq {
			if l.syncing {
				l.flushCond.Wait()
			} else {
				l.leadGroupFlush()
			}
		}
		if l.sticky != nil {
			return 0, l.sticky
		}
	}

	if l.segSize >= l.cfg.segmentBytes {
		l.awaitSync()
		// Another committer may have rotated while this one waited.
		if l.sticky == nil && !l.closed && l.segSize >= l.cfg.segmentBytes {
			if err := l.openSegment(l.nextSeq); err != nil {
				l.fail(fmt.Errorf("durable: segment rotation: %w", err))
				return 0, l.sticky
			}
			// Rotation synced everything appended so far.
			l.flushedSeq = l.appendedSeq
			l.flushCond.Broadcast()
		}
	}
	return int64(len(frame)), nil
}

// setTap installs (or clears, with nil) the append observer. Install it
// before commits flow; replacing a live tap is racy only in the sense that
// an in-flight Commit uses whichever tap it observes under l.mu.
func (l *Log) setTap(tap func(seq uint64, frame []byte)) {
	l.mu.Lock()
	l.tap = tap
	l.mu.Unlock()
}

// AppendedSeq returns the highest sequence number appended so far.
func (l *Log) AppendedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendedSeq
}

// skipTo advances the sequencer to firstSeq, rotating to a fresh segment
// named for it, so the next Commit must carry exactly firstSeq. It is the
// follower-side half of snapshot installation: after a replica snapshot at
// watermark W is on disk, the log resumes at W+1 with no on-disk gap (the
// rotation starts a new segment whose name declares the jump; records at or
// below W in older segments are covered by the snapshot). Refuses to move
// backwards.
func (l *Log) skipTo(firstSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSync()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return ErrClosed
	}
	if firstSeq < l.nextSeq {
		return fmt.Errorf("durable: skipTo %d would regress the sequencer (next %d)", firstSeq, l.nextSeq)
	}
	if firstSeq == l.nextSeq {
		return nil
	}
	if err := l.openSegment(firstSeq); err != nil {
		l.fail(fmt.Errorf("durable: skipTo rotation: %w", err))
		return l.sticky
	}
	l.nextSeq = firstSeq
	l.appendedSeq = firstSeq - 1
	l.flushedSeq = firstSeq - 1
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
	return nil
}

// syncThrough waits until every record up to seq is appended, then forces
// them to stable storage regardless of policy.
func (l *Log) syncThrough(seq uint64) error {
	l.mu.Lock()
	for l.sticky == nil && !l.closed && l.appendedSeq < seq {
		l.seqCond.Wait()
	}
	err := l.sticky
	if err == nil && l.appendedSeq < seq {
		err = ErrClosed
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.Sync()
}

// Sync forces everything appended so far to stable storage, regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSync()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return nil // Close already flushed and synced
	}
	if err := l.buf.Flush(); err != nil {
		l.fail(fmt.Errorf("durable: flush: %w", err))
		return l.sticky
	}
	if err := l.f.Sync(); err != nil {
		l.fail(fmt.Errorf("durable: fsync: %w", err))
		return l.sticky
	}
	l.fsyncs++
	l.flushedSeq = l.appendedSeq
	l.flushCond.Broadcast()
	return nil
}

// Close flushes, syncs and closes the log. Idempotent; subsequent Commits
// fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSync()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.sticky == nil {
		if err = l.buf.Flush(); err == nil {
			if err = l.f.Sync(); err == nil {
				l.fsyncs++
			}
		}
		l.flushedSeq = l.appendedSeq
	}
	cerr := l.f.Close()
	if err == nil {
		err = cerr
	}
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
	return err
}

// --- recovery ---

// recovery is what a boot-time scan of a WAL directory yields.
type recovery struct {
	// values holds the recovered cellID → latest value map (snapshot state
	// overlaid with every replayed redo record).
	values map[uint64]val.Value
	// lastSeq is the highest commit sequence restored (snapshot watermark
	// included); the reopened log starts at lastSeq+1.
	lastSeq uint64
	// commits counts redo records replayed (snapshot state excluded).
	commits uint64
	// snapSeq is the snapshot watermark boot started from (0 = none).
	snapSeq uint64
	// tornBytes is how many bytes of torn final frame were truncated away.
	tornBytes int64
}

// segmentFile pairs a segment path with the first seq its name declares.
type segmentFile struct {
	path     string
	firstSeq uint64
}

func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexSeq := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		seq, err := strconv.ParseUint(hexSeq, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("durable: malformed segment name %q: %v", name, err)
		}
		segs = append(segs, segmentFile{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// recoverDir scans a WAL directory: loads the snapshot (if any), replays
// every segment's redo records above the snapshot watermark in sequence
// order, truncates a torn final frame (reporting how many bytes), and
// rejects mid-log corruption or sequence gaps as hard errors. A leftover
// snapshot.tmp from an interrupted compaction is deleted. An empty or
// absent directory recovers to the empty state.
func recoverDir(dir string) (*recovery, error) {
	rec := &recovery{values: map[uint64]val.Value{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// An interrupted compaction can leave snapshot.tmp behind (crash
	// between write and rename); it never became the live snapshot, so
	// drop it.
	if err := os.Remove(filepath.Join(dir, snapshotTmp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := loadSnapshot(dir, rec); err != nil {
		return nil, err
	}
	rec.lastSeq = rec.snapSeq

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := replaySegment(seg, last, rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func loadSnapshot(dir string, rec *recovery) error {
	path := filepath.Join(dir, snapshotName)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapshotMagic {
		return fmt.Errorf("durable: bad snapshot magic in %s", path)
	}
	payload, _, err := ReadFrame(r)
	if err != nil {
		// The snapshot was written with write-tmp → fsync → rename, so a
		// torn snapshot means disk corruption, not a crash: refuse.
		return fmt.Errorf("durable: corrupt snapshot %s: %v", path, err)
	}
	seq, values, err := DecodeSnapshotPayload(payload)
	if err != nil {
		return fmt.Errorf("durable: corrupt snapshot %s: %v", path, err)
	}
	rec.snapSeq = seq
	rec.values = values
	return nil
}

// replaySegment applies seg's redo records above the snapshot watermark to
// rec. Torn frames are tolerated (truncated, counted) only in the final
// segment: every earlier segment was flushed and synced at rotation, so a
// bad frame there is mid-log corruption and recovery refuses to guess past
// it.
func replaySegment(seg segmentFile, lastSegment bool, rec *recovery) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != segmentMagic {
		return fmt.Errorf("durable: bad segment magic in %s", seg.path)
	}
	offset := int64(len(segmentMagic))
	for {
		payload, frameLen, err := ReadFrame(r)
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, ErrTorn) {
			if !lastSegment {
				return fmt.Errorf("durable: corrupt frame mid-log in %s at offset %d: %v", seg.path, offset, err)
			}
			st, serr := f.Stat()
			if serr != nil {
				return serr
			}
			rec.tornBytes = st.Size() - offset
			if terr := os.Truncate(seg.path, offset); terr != nil {
				return terr
			}
			return nil
		}
		if err != nil {
			return err
		}
		seq, writes, err := DecodeCommitPayload(payload)
		if err != nil {
			// A CRC-valid frame with a malformed payload is corruption the
			// CRC cannot excuse — refuse even in the final segment.
			return fmt.Errorf("durable: malformed record in %s at offset %d: %v", seg.path, offset, err)
		}
		if seq > rec.snapSeq {
			if seq != rec.lastSeq+1 {
				return fmt.Errorf("durable: sequence gap in %s at offset %d: got seq %d, want %d",
					seg.path, offset, seq, rec.lastSeq+1)
			}
			for _, w := range writes {
				rec.values[w.ID] = w.V
			}
			rec.lastSeq = seq
			rec.commits++
		}
		offset += frameLen
	}
}
