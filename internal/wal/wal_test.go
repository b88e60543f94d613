package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spanjoin/internal/obs"
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
		seq, err := rec.Log.Append(context.Background(), Record{uint32(i % 3), d})
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
	seq, err := rec2.Log.Append(context.Background(), Record{0, "after recovery"})
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
	if _, err := rec.Log.Append(context.Background(), Record{0, ""}); err != nil {
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
				if _, err := rec.Log.Append(context.Background(), Record{uint32(i % 2), fmt.Sprintf("doc-%d", i)}); err != nil {
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
			if _, err := rec2.Log.Append(context.Background(), Record{0, "resumed"}); err != nil {
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
			if _, err := rec2.Log.Append(context.Background(), Record{0, "written after repair"}); err != nil {
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
	if _, err := rec.Log.Append(context.Background(), Record{0, "kept"}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{0, fmt.Sprintf("document body %d", i)}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{si, doc}); err != nil {
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
	if _, err := rec.Log.Append(context.Background(), Record{0, "post-rotate"}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{si, doc}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{0, doc}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if _, err := rec.Log.Append(context.Background(), Record{0, "fresh"}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{uint32(i % 4), fmt.Sprintf("d%d", i)}); err != nil {
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
	if _, err := rec.Log.Append(context.Background(), Record{0, "only"}); err != nil {
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
		if _, err := rec.Log.Append(context.Background(), Record{0, "x"}); err != nil {
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

// TestOversizeRecordRejected: a document over MaxRecord fails its whole
// batch — alone or among documents that fit — before any byte is
// written, and the log stays usable.
func TestOversizeRecordRejected(t *testing.T) {
	rec := openEmpty(t, 1, Options{MaxRecord: 64})
	defer rec.Log.Close()
	big := string(make([]byte, 100))
	for i, batch := range [][]Record{{{0, big}}, {{0, "fits"}, {0, big}, {0, "fits too"}}} {
		before := rec.Log.Stats()
		if _, err := rec.Log.Append(context.Background(), batch...); err == nil {
			t.Fatalf("batch %d: oversize append accepted", i)
		}
		if after := rec.Log.Stats(); after != before {
			t.Fatalf("batch %d: rejected append moved the log: %+v → %+v", i, before, after)
		}
		if fi, err := os.Stat(filepath.Join(rec.Log.dir, logName(0))); err != nil || fi.Size() != int64(before.Size) {
			t.Fatalf("batch %d: log file %v, %v after a rejected append; want %d bytes", i, fi, err, before.Size)
		}
		// The log is not wedged by a rejected (never-written) batch.
		if seq, err := rec.Log.Append(context.Background(), Record{0, "small"}); err != nil || seq != uint64(i+1) {
			t.Fatalf("append after rejected oversize: seq %d, %v; want %d", seq, err, i+1)
		}
	}
}

// TestBatchAppend: a batch spanning several chunks is N records in
// sequence order, logged with one fsync under SyncAlways and traced as
// one wal_append and one wal_fsync, and recovers record for record, each
// to its shard.
func TestBatchAppend(t *testing.T) {
	rec := openEmpty(t, 3, Options{Policy: SyncAlways, Stages: obs.NewRegistry().Stages()})
	if _, err := rec.Log.Append(context.Background(), Record{0, "first"}); err != nil {
		t.Fatal(err)
	}
	before := rec.Log.Stats()
	var batch []Record
	for i := range 40 {
		// 40 × 5 KiB is more than three chunks; one document is empty.
		doc := fmt.Sprintf("%d%s", i, strings.Repeat("x", 5<<10))
		if i == 7 {
			doc = ""
		}
		batch = append(batch, Record{uint32(i % 3), doc})
	}
	ctx, tr := obs.WithTrace(context.Background())
	last, err := rec.Log.Append(ctx, batch...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Calls != 1 {
			t.Fatalf("batch traced %d %s calls, want 1", sp.Calls, sp.Stage)
		}
	}
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("batch traced %d stages, want wal_append and wal_fsync", n)
	}
	after := rec.Log.Stats()
	if last != before.LastSeq+40 || after.LastSeq != last || after.SyncedSeq != last {
		t.Fatalf("Append returned %d; LastSeq %d → %d, SyncedSeq %d; want 40 more", last, before.LastSeq, after.LastSeq, after.SyncedSeq)
	}
	if after.Appends-before.Appends != 40 || after.Syncs-before.Syncs != 1 {
		t.Fatalf("batch of 40: %d appends, %d syncs; want 40 and 1", after.Appends-before.Appends, after.Syncs-before.Syncs)
	}
	rec2 := reopen(t, rec, 3, Options{})
	defer rec2.Log.Close()
	if rec2.Stats.Replayed != 41 || rec2.Stats.TornBytes != 0 {
		t.Fatalf("recovery %+v, want 41 records and no torn bytes", rec2.Stats)
	}
	want := make([][]string, 3)
	want[0] = []string{"first"}
	for _, r := range batch {
		want[r.Shard] = append(want[r.Shard], r.Doc)
	}
	if !reflect.DeepEqual(rec2.Shards, want) {
		t.Fatal("recovered shards differ from the batch")
	}
}

// TestAppendRetainsOneChunk: the framing buffer a log keeps between
// appends is one chunk, whatever the largest record it has framed — a
// 16 MiB document (spand's -max-doc-bytes default) is not kept twice.
func TestAppendRetainsOneChunk(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	defer rec.Log.Close()
	big := strings.Repeat("y", 16<<20)
	if _, err := rec.Log.Append(context.Background(), Record{0, "small"}, Record{0, big}, Record{0, "after"}); err != nil {
		t.Fatal(err)
	}
	if c := cap(rec.Log.buf); c > chunkBytes {
		t.Fatalf("log retains a %d-byte buffer after a 16 MiB append, want at most %d", c, chunkBytes)
	}
}
