// Snapshot writing and log compaction: the snapshot file replaces every
// redo record at or below its watermark, so old segments can be deleted and
// recovery replays snapshot-then-tail instead of the full history.
package durable

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// WriteSnapshot atomically installs a snapshot of entries at watermark seq
// and deletes every segment the watermark fully covers (see
// installSnapshot).
func (l *Log) WriteSnapshot(seq uint64, entries []Entry) error {
	if err := l.Err(); err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	payload, err := appendSnapshotPayload(nil, seq, entries)
	if err != nil {
		return err
	}
	return l.installSnapshot(seq, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// installSnapshot writes a snapshot file whose 'S' payload (watermark seq)
// write streams, installs it and deletes every segment the watermark fully
// covers. write returns only once the snapshot may go live. A snapshot
// older than the one already installed is refused. The install is
// write-tmp → fsync → rename → fsync-dir, so a crash leaves either the old
// snapshot or the new one, never a torn one; a crash between rename and
// segment deletion leaves stale segments whose records recovery then skips
// (they are ≤ the watermark). Concurrent appends are safe: only segments
// strictly older than the active one are ever deleted.
func (l *Log) installSnapshot(seq uint64, write func(w io.Writer) error) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if seq < l.snapSeq {
		return fmt.Errorf("durable: snapshot at %d is older than the installed one at %d", seq, l.snapSeq)
	}
	tmp := filepath.Join(l.cfg.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = writeSnapshotFile(f, write)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: snapshot write: %w", err)
	}

	if l.cfg.crash.fire(CrashMidSnapshotRename) {
		// Crash between writing snapshot.tmp and the rename: the tmp file
		// is left behind for boot to ignore and clean up.
		l.mu.Lock()
		l.fail(ErrCrashed)
		l.mu.Unlock()
		return ErrCrashed
	}

	if err := os.Rename(tmp, filepath.Join(l.cfg.dir, snapshotName)); err != nil {
		return err
	}
	if err := syncDir(l.cfg.dir); err != nil {
		return err
	}
	l.snapSeq = seq

	if l.cfg.crash.fire(CrashAfterSnapshotRename) {
		// Crash between the rename and old-segment truncation: the new
		// snapshot is live, the covered segments linger; boot skips their
		// records (all ≤ the watermark).
		l.mu.Lock()
		l.fail(ErrCrashed)
		l.mu.Unlock()
		return ErrCrashed
	}

	return l.truncateCovered(seq)
}

// writeSnapshotFile writes the snapshot magic and one frame around the
// payload write streams. The payload is never held in memory whole: the
// frame header is written last, once the payload's length and CRC are
// known (the file is not live until renamed).
func writeSnapshotFile(f *os.File, write func(w io.Writer) error) error {
	var head [len(snapshotMagic) + frameHeaderLen]byte
	copy(head[:], snapshotMagic)
	if _, err := f.Write(head[:]); err != nil {
		return err
	}
	bw, sum := bufio.NewWriter(f), crc32.NewIEEE()
	if err := write(io.MultiWriter(bw, sum)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	putFrameHeader(head[len(snapshotMagic):], int(end)-len(head), sum.Sum32())
	_, err = f.WriteAt(head[len(snapshotMagic):], int64(len(snapshotMagic)))
	return err
}

// truncateCovered deletes every segment all of whose records the snapshot
// watermark covers: segment i is disposable when the next segment starts at
// or below watermark+1 (so every seq in segment i is ≤ watermark). The last
// segment (the active one) never has a successor and is never deleted, so
// this cannot race the appender.
func (l *Log) truncateCovered(watermark uint64) error {
	segs, err := listSegments(l.cfg.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq <= watermark+1 {
			if err := os.Remove(segs[i].path); err != nil {
				return err
			}
		}
	}
	return syncDir(l.cfg.dir)
}
