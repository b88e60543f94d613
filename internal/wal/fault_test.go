//go:build failpoints

package wal

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spanjoin/internal/resilience"
)

// TestShortWriteWedgesLog injects a torn write into an append: the
// record's prefix reaches the file, the append fails, and the log wedges
// — no later append may frame a record behind the garbage.
func TestShortWriteWedgesLog(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	if _, err := rec.Log.Append(context.Background(), Record{0, "before fault"}); err != nil {
		t.Fatal(err)
	}

	calls := 0
	disarm := resilience.Enable(resilience.FailWALWrite, func(arg any) {
		f := arg.(*resilience.IOFault)
		if f.Op == "append" && calls == 0 {
			f.ShortenTo = f.N / 2
			calls++
		}
	})
	_, err := rec.Log.Append(context.Background(), Record{0, "torn by the failpoint"})
	disarm()
	if err == nil {
		t.Fatal("append survived an injected short write")
	}
	// Wedged: the same error again, without the failpoint armed.
	if _, err2 := rec.Log.Append(context.Background(), Record{0, "after fault"}); err2 == nil {
		t.Fatal("append succeeded on a wedged log")
	}
	rec.Log.Close()

	// Recovery treats the injected partial record as a torn tail.
	rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatalf("recovery after short write: %v", err)
	}
	defer rec2.Log.Close()
	if rec2.Stats.TornBytes == 0 {
		t.Fatal("TornBytes = 0, want the injected partial record")
	}
	if len(rec2.Shards[0]) != 1 || rec2.Shards[0][0] != "before fault" {
		t.Fatalf("docs = %v, want exactly the pre-fault doc", rec2.Shards[0])
	}
}

// TestFsyncErrorWedgesLog injects an fsync failure under SyncAlways: the
// append is not acknowledged, the error is counted, and the log wedges.
func TestFsyncErrorWedgesLog(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncAlways})
	defer rec.Log.Close()

	boom := errors.New("device lied")
	disarm := resilience.Enable(resilience.FailWALSync, func(arg any) {
		arg.(*resilience.IOFault).Err = boom
	})
	_, err := rec.Log.Append(context.Background(), Record{0, "never acked"})
	disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("append err = %v, want the injected fsync error", err)
	}
	if got := rec.Log.Stats().SyncErrors; got != 1 {
		t.Fatalf("SyncErrors = %d, want 1", got)
	}
	if _, err := rec.Log.Append(context.Background(), Record{0, "after"}); err == nil {
		t.Fatal("append succeeded on a wedged log")
	}
	if err := rec.Log.Sync(); err == nil {
		t.Fatal("sync succeeded on a wedged log")
	}
}

// TestSnapshotWriteFaultLeavesNoFile injects failures into the snapshot
// write path: WriteSnapshot must fail without leaving a visible snapshot
// or a stray temp file, and the previous snapshot must stay in force.
func TestSnapshotWriteFaultLeavesNoFile(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncNever})
	dir := rec.Log.dir
	for i := 0; i < 3; i++ {
		if _, err := rec.Log.Append(context.Background(), Record{0, fmt.Sprintf("doc %d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	boom := errors.New("disk full")
	disarm := resilience.Enable(resilience.FailSnapWrite, func(arg any) {
		arg.(*resilience.IOFault).Err = boom
	})
	err := WriteSnapshot(dir, 0, 3, [][]string{{"doc 0", "doc 1", "doc 2"}})
	disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot err = %v, want the injected write error", err)
	}
	rec.Log.Close()

	// Recovery falls back to pure log replay: nothing lost, nothing stale.
	rec2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatalf("recovery after failed snapshot: %v", err)
	}
	defer rec2.Log.Close()
	if rec2.Stats.SnapshotDocs != 0 {
		t.Fatalf("SnapshotDocs = %d, want 0 (failed snapshot must not be visible)", rec2.Stats.SnapshotDocs)
	}
	if got := len(rec2.Shards[0]); got != 3 {
		t.Fatalf("recovered %d docs from the log, want 3", got)
	}
}

// TestSnapshotShortWriteIsCaught injects a torn snapshot write: the temp
// file is short, the write errors, and no rename happens.
func TestSnapshotShortWriteIsCaught(t *testing.T) {
	dir := t.TempDir()
	disarm := resilience.Enable(resilience.FailSnapWrite, func(arg any) {
		f := arg.(*resilience.IOFault)
		if f.N > 4 {
			f.ShortenTo = f.N / 2
		}
	})
	err := WriteSnapshot(dir, 0, 2, [][]string{{"alpha", "beta"}})
	disarm()
	if err == nil {
		t.Fatal("WriteSnapshot survived an injected short write")
	}
	rec, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatalf("Open after torn snapshot write: %v", err)
	}
	defer rec.Log.Close()
	if rec.Stats.SnapshotDocs != 0 || len(rec.Shards[0]) != 0 {
		t.Fatalf("torn snapshot write became visible: %+v", rec.Stats)
	}
}

// TestBatchTearKeepsWholeRecords tears a batch's write inside its k-th
// record, in the first chunk and in a later one: the append fails, the
// log wedges, and recovery keeps exactly the whole records before the
// tear — the ones before the batch and a prefix of it — counting the
// torn record's bytes in TornBytes.
func TestBatchTearKeepsWholeRecords(t *testing.T) {
	const docLen = 10000
	const recLen = recHdrSize + recMinBody + docLen
	const perChunk = chunkBytes / recLen
	for _, tc := range []struct{ write, k int }{{1, 0}, {1, 4}, {3, 2}} {
		t.Run(fmt.Sprintf("write%d/record%d", tc.write, tc.k), func(t *testing.T) {
			rec := openEmpty(t, 2, Options{Policy: SyncAlways})
			dir := rec.Log.dir
			if _, err := rec.Log.Append(context.Background(), Record{0, "before the batch"}); err != nil {
				t.Fatal(err)
			}
			var batch []Record
			for i := range 4 * perChunk {
				batch = append(batch, Record{uint32(i % 2), fmt.Sprintf("%04d%s", i, strings.Repeat("z", docLen-4))})
			}
			writes := 0
			disarm := resilience.Enable(resilience.FailWALWrite, func(arg any) {
				f := arg.(*resilience.IOFault)
				if writes++; writes != tc.write {
					return
				}
				if f.N != perChunk*recLen {
					t.Errorf("write %d carries %d bytes, want %d whole records", writes, f.N, perChunk)
				}
				f.ShortenTo = tc.k*recLen + recLen/2
			})
			_, err := rec.Log.Append(context.Background(), batch...)
			disarm()
			if err == nil {
				t.Fatal("batch survived an injected torn write")
			}
			if _, err := rec.Log.Append(context.Background(), Record{0, "after"}); err == nil {
				t.Fatal("append succeeded on a wedged log")
			}
			rec.Log.Close()

			rec2, err := Open(dir, 2, Options{})
			if err != nil {
				t.Fatalf("recovery after a torn batch: %v", err)
			}
			defer rec2.Log.Close()
			kept := (tc.write-1)*perChunk + tc.k
			if rec2.Stats.Replayed != uint64(1+kept) || rec2.Stats.TornBytes != recLen/2 {
				t.Fatalf("recovered %d records, %d torn bytes; want %d and %d", rec2.Stats.Replayed, rec2.Stats.TornBytes, 1+kept, recLen/2)
			}
			want := [][]string{{"before the batch"}, nil}
			for _, r := range batch[:kept] {
				want[r.Shard] = append(want[r.Shard], r.Doc)
			}
			if !reflect.DeepEqual(rec2.Shards, want) {
				t.Fatal("recovered documents are not the records before the tear")
			}
		})
	}
}

// TestEmptyBatchTouchesNothing: an empty batch writes, syncs and counts
// nothing, and fires none of the append path's failpoints.
func TestEmptyBatchTouchesNothing(t *testing.T) {
	rec := openEmpty(t, 1, Options{Policy: SyncAlways})
	defer rec.Log.Close()
	if _, err := rec.Log.Append(context.Background(), Record{0, "one"}); err != nil {
		t.Fatal(err)
	}
	var fired []string
	for _, name := range []string{resilience.CrashBeforeAppend, resilience.CrashAfterAppend, resilience.FailWALWrite, resilience.FailWALSync} {
		defer resilience.Enable(name, func(any) { fired = append(fired, name) })()
	}
	before := rec.Log.Stats()
	seq, err := rec.Log.Append(context.Background())
	if err != nil || seq != before.LastSeq {
		t.Fatalf("empty batch: seq %d, %v; want %d, nil", seq, err, before.LastSeq)
	}
	if after := rec.Log.Stats(); after != before || len(fired) != 0 {
		t.Fatalf("empty batch moved the log (%+v → %+v) or fired %v", before, after, fired)
	}
}
