package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spanjoin/internal/resilience"
)

// openEmpty opens a fresh directory and fails the test on error.
func openEmpty(t *testing.T, shards int, opt Options) *Recovered {
	t.Helper()
	rec, err := Open(t.TempDir(), shards, opt)
	if err != nil {
		t.Fatalf("Open fresh dir: %v", err)
	}
	return rec
}

// reopen closes the log and recovers the directory again.
func reopen(t *testing.T, rec *Recovered, shards int, opt Options) *Recovered {
	t.Helper()
	if err := rec.Log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec2, err := Open(rec.Log.dir, shards, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return rec2
}

func TestFreshDirIsEmpty(t *testing.T) {
	rec := openEmpty(t, 4, Options{})
	defer rec.Log.Close()
	if rec.Stats.Replayed != 0 || rec.Stats.SnapshotDocs != 0 || rec.Stats.LastSeq != 0 {
		t.Fatalf("fresh dir not empty: %+v", rec.Stats)
	}
	for si, docs := range rec.Shards {
		if len(docs) != 0 {
			t.Fatalf("shard %d has %d docs in a fresh dir", si, len(docs))
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	rec := openEmpty(t, 3, Options{Policy: SyncNever})
	docs := []string{"alpha", "", "gamma with spaces", "δδδ utf8", "last"}
	for i, d := range docs {
		seq, err := rec.Log.Append(context.Background(), uint32(i%3), d)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	rec2 := reopen(t, rec, 3, Options{})
	defer rec2.Log.Close()
	if rec2.Stats.Replayed != uint64(len(docs)) {
		t.Fatalf("Replayed = %d, want %d", rec2.Stats.Replayed, len(docs))
	}
	if rec2.Stats.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on a clean log", rec2.Stats.TornBytes)
	}
	for i, d := range docs {
		sh := rec2.Shards[i%3]
		if len(sh) == 0 || sh[0] != d {
			t.Fatalf("shard %d missing doc %q: %v", i%3, d, sh)
		}
		rec2.Shards[i%3] = sh[1:]
	}
	// Appends continue with the recovered sequence.
	seq, err := rec2.Log.Append(context.Background(), 0, "after recovery")
	if err != nil {
		t.Fatalf("post-recovery Append: %v", err)
	}
	if seq != uint64(len(docs)+1) {
		t.Fatalf("post-recovery seq = %d, want %d", seq, len(docs)+1)
	}
}

// TestEmptyDocumentIsARecord pins the empty-document contract: Add("")
// is a countable, durable document, not an absence.
func TestEmptyDocumentIsARecord(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	if _, err := rec.Log.Append(context.Background(), 0, ""); err != nil {
		t.Fatalf("Append empty: %v", err)
	}
	rec2 := reopen(t, rec, 1, Options{})
	defer rec2.Log.Close()
	if len(rec2.Shards[0]) != 1 || rec2.Shards[0][0] != "" {
		t.Fatalf("empty document not recovered: %v", rec2.Shards[0])
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, recHdrSize - 1, recHdrSize, recHdrSize + 5} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			rec := openEmpty(t, 2, Options{Policy: SyncNever})
			dir := rec.Log.dir
			for i := 0; i < 5; i++ {
				if _, err := rec.Log.Append(context.Background(), uint32(i%2), fmt.Sprintf("doc-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := rec.Log.Close(); err != nil {
				t.Fatal(err)
			}
			// Tear the tail: drop the last record's final bytes plus cut-1
			// more, so the file ends mid-record.
			path := filepath.Join(dir, logName(0))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rec2, err := Open(dir, 2, Options{})
			if err != nil {
				t.Fatalf("Open with torn tail: %v", err)
			}
			defer rec2.Log.Close()
			if rec2.Stats.TornBytes == 0 {
				t.Fatalf("TornBytes = 0, want > 0 after tearing %d bytes", cut)
			}
			if rec2.Stats.Replayed != 4 {
				t.Fatalf("Replayed = %d, want 4 (last record torn)", rec2.Stats.Replayed)
			}
			// The torn bytes are gone from the file too: appends resume at
			// the truncation point and the log replays cleanly again.
			if _, err := rec2.Log.Append(context.Background(), 0, "resumed"); err != nil {
				t.Fatal(err)
			}
			rec3 := reopen(t, rec2, 2, Options{})
			defer rec3.Log.Close()
			if rec3.Stats.TornBytes != 0 {
				t.Fatalf("TornBytes = %d after repair+append, want 0", rec3.Stats.TornBytes)
			}
			if rec3.Stats.Replayed != 5 {
				t.Fatalf("Replayed = %d after repair+append, want 5", rec3.Stats.Replayed)
			}
		})
	}
}

// TestPartialMagicRecreated covers a crash during the log file's own
// creation: the surviving prefix of the magic is residue, and appends
// after repair must land in a correctly-framed file.
func TestPartialMagicRecreated(t *testing.T) {
	for _, keep := range []int{0, 1, len(logMagic) - 1} {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			rec := openEmpty(t, 1, Options{Policy: SyncNever})
			dir := rec.Log.dir
			if err := rec.Log.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, logName(0))
			if err := os.WriteFile(path, []byte(logMagic)[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			rec2, err := Open(dir, 1, Options{})
			if err != nil {
				t.Fatalf("Open with partial magic: %v", err)
			}
			if _, err := rec2.Log.Append(context.Background(), 0, "written after repair"); err != nil {
				t.Fatal(err)
			}
			rec3 := reopen(t, rec2, 1, Options{})
			defer rec3.Log.Close()
			if len(rec3.Shards[0]) != 1 || rec3.Shards[0][0] != "written after repair" {
				t.Fatalf("docs = %v after magic repair", rec3.Shards[0])
			}
		})
	}
}

func TestZeroFilledTailIsTorn(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	if _, err := rec.Log.Append(context.Background(), 0, "kept"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName(0))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatalf("zero-filled tail should be torn, got %v", err)
	}
	defer rec2.Log.Close()
	if rec2.Stats.TornBytes != 512 {
		t.Fatalf("TornBytes = %d, want 512", rec2.Stats.TornBytes)
	}
	if len(rec2.Shards[0]) != 1 {
		t.Fatalf("docs = %v, want [kept]", rec2.Shards[0])
	}
}

func TestMidLogCorruptionIsTyped(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	for i := 0; i < 10; i++ {
		if _, err := rec.Log.Append(context.Background(), 0, fmt.Sprintf("document body %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file: the checksum
	// fails but intact records follow, so this cannot be a torn tail.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, 1, Options{})
	if err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	}
	if !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("err = %v, want errors.Is(..., ErrCorrupt)", err)
	}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	rec := openEmpty(t, 2, Options{Policy: SyncNever})
	dir := rec.Log.dir
	shards := make([][]string, 2)
	for i := 0; i < 6; i++ {
		si := uint32(i % 2)
		doc := fmt.Sprintf("pre-snap %d", i)
		if _, err := rec.Log.Append(context.Background(), si, doc); err != nil {
			t.Fatal(err)
		}
		shards[si] = append(shards[si], doc)
	}
	// The snapshot cycle: rotate, write from the captured state, prune.
	gen, err := rec.Log.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appliedSeq := rec.Log.LastSeq()
	if _, err := rec.Log.Append(context.Background(), 0, "post-rotate"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, gen, appliedSeq, shards); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	rec.Log.Prune(gen)
	if _, err := os.Stat(filepath.Join(dir, logName(0))); !os.IsNotExist(err) {
		t.Fatalf("old log survived prune: %v", err)
	}

	rec2 := reopen(t, rec, 2, Options{})
	defer rec2.Log.Close()
	if rec2.Stats.SnapshotDocs != 6 || rec2.Stats.Replayed != 1 {
		t.Fatalf("stats = %+v, want 6 snapshot docs + 1 replayed", rec2.Stats)
	}
	if got := rec2.Shards[0][len(rec2.Shards[0])-1]; got != "post-rotate" {
		t.Fatalf("last doc of shard 0 = %q, want post-rotate", got)
	}
}

// TestDuplicateReplayIdempotent pins the crash-between-rename-and-prune
// window: the snapshot covers records that are still present in an
// un-pruned older log, and replay must not double-apply them.
func TestDuplicateReplayIdempotent(t *testing.T) {
	rec := openEmpty(t, 2, Options{Policy: SyncNever})
	dir := rec.Log.dir
	shards := make([][]string, 2)
	for i := 0; i < 4; i++ {
		si := uint32(i % 2)
		doc := fmt.Sprintf("covered %d", i)
		if _, err := rec.Log.Append(context.Background(), si, doc); err != nil {
			t.Fatal(err)
		}
		shards[si] = append(shards[si], doc)
	}
	gen, err := rec.Log.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, gen, rec.Log.LastSeq(), shards); err != nil {
		t.Fatal(err)
	}
	// No prune: wal-0.log still holds records 1..4, all covered by the
	// snapshot. (Also no post-rotate appends: snapshot + stale log only.)
	rec2 := reopen(t, rec, 2, Options{})
	defer rec2.Log.Close()
	total := len(rec2.Shards[0]) + len(rec2.Shards[1])
	if total != 4 {
		t.Fatalf("recovered %d docs, want 4 (duplicates must be dropped)", total)
	}
	if rec2.Stats.Skipped != 0 {
		// wal-0 is below the snapshot generation, so it is skipped
		// wholesale, not record by record.
		t.Fatalf("Skipped = %d, want 0 (stale log skipped by generation)", rec2.Stats.Skipped)
	}
}

// TestDuplicateReplaySameGeneration forces the per-record dedup path: a
// log of the snapshot's own generation carrying records the snapshot
// already covers.
func TestDuplicateReplaySameGeneration(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	var docs []string
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf("dup %d", i)
		if _, err := rec.Log.Append(context.Background(), 0, doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if _, err := rec.Log.Append(context.Background(), 0, "fresh"); err != nil {
		t.Fatal(err)
	}
	// Snapshot at generation 0 covering only the first three records:
	// replaying wal-0.log must skip 1..3 and apply 4.
	if err := WriteSnapshot(dir, 0, 3, [][]string{docs}); err != nil {
		t.Fatal(err)
	}
	rec2 := reopen(t, rec, 1, Options{})
	defer rec2.Log.Close()
	if got := len(rec2.Shards[0]); got != 4 {
		t.Fatalf("recovered %d docs, want 4", got)
	}
	if rec2.Stats.Skipped != 3 || rec2.Stats.Replayed != 1 {
		t.Fatalf("stats = %+v, want 3 skipped + 1 replayed", rec2.Stats)
	}
}

func TestCorruptSnapshotIsTyped(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	if err := WriteSnapshot(dir, 0, 2, [][]string{{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, 1, Options{})
	if !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotTempFilesCleared(t *testing.T) {
	rec := openEmpty(t, 1, Options{})
	dir := rec.Log.dir
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves a .tmp; recovery must ignore and
	// remove it.
	tmp := filepath.Join(dir, snapName(7)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial snapshot junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatalf("Open with stale temp: %v", err)
	}
	defer rec2.Log.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived recovery: %v", err)
	}
}

func TestSnapshotShardCountChangeRedeals(t *testing.T) {
	rec := openEmpty(t, 4, Options{Policy: SyncNever})
	dir := rec.Log.dir
	for i := 0; i < 8; i++ {
		if _, err := rec.Log.Append(context.Background(), uint32(i%4), fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Open(dir, 2, Options{})
	if err != nil {
		t.Fatalf("Open with fewer shards: %v", err)
	}
	defer rec2.Log.Close()
	if got := len(rec2.Shards[0]) + len(rec2.Shards[1]); got != 8 {
		t.Fatalf("recovered %d docs across 2 shards, want 8", got)
	}
}

func TestEmptyLogAfterSnapshot(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	if _, err := rec.Log.Append(context.Background(), 0, "only"); err != nil {
		t.Fatal(err)
	}
	gen, err := rec.Log.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, gen, rec.Log.LastSeq(), [][]string{{"only"}}); err != nil {
		t.Fatal(err)
	}
	rec.Log.Prune(gen)
	rec2 := reopen(t, rec, 1, Options{})
	defer rec2.Log.Close()
	if rec2.Stats.SnapshotDocs != 1 || rec2.Stats.Replayed != 0 {
		t.Fatalf("stats = %+v, want snapshot-only recovery", rec2.Stats)
	}
}

func TestSequenceGapIsCorrupt(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	for i := 0; i < 3; i++ {
		if _, err := rec.Log.Append(context.Background(), 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatal(err)
	}
	// Excise the middle record wholesale — checksums stay valid but the
	// sequence numbers jump 1 → 3.
	path := filepath.Join(dir, logName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(data) - len(logMagic)) / 3
	cut := append([]byte(nil), data[:len(logMagic)+recLen]...)
	cut = append(cut, data[len(logMagic)+2*recLen:]...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, 1, Options{})
	if !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("sequence gap: err = %v, want ErrCorrupt", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	rec := openEmpty(t, 1, Options{MaxRecord: 64})
	defer rec.Log.Close()
	if _, err := rec.Log.Append(context.Background(), 0, string(make([]byte, 100))); err == nil {
		t.Fatal("oversize append accepted")
	}
	// The log is not wedged by a rejected (never-written) record.
	if _, err := rec.Log.Append(context.Background(), 0, "small"); err != nil {
		t.Fatalf("append after rejected oversize: %v", err)
	}
}
