package spanjoin_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/leakcheck"
)

// openDurable opens a durable corpus and registers a cleanup Close.
func openDurable(t *testing.T, dir string, opts ...spanjoin.CorpusOption) *spanjoin.Corpus {
	t.Helper()
	c, err := spanjoin.Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir, spanjoin.WithShards(3))
	docs := []string{"mail bob@example now", "no match here", "", "mail eve@example too"}
	var ids []spanjoin.DocID
	for _, d := range docs {
		id, err := c.AddErrCtx(context.Background(), d)
		if err != nil {
			t.Fatalf("AddErrCtx(%q): %v", d, err)
		}
		ids = append(ids, id...)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := openDurable(t, dir, spanjoin.WithShards(3))
	if c2.Len() != len(docs) {
		t.Fatalf("Len after reopen = %d, want %d", c2.Len(), len(docs))
	}
	if !c2.Durable() {
		t.Fatal("reopened corpus not durable")
	}
	// Same shard count and append order ⇒ same IDs resolve to the same
	// documents.
	for i, id := range ids {
		got, ok := c2.Doc(id)
		if !ok || got != docs[i] {
			t.Fatalf("Doc(%d) = %q,%v after reopen, want %q", id, got, ok, docs[i])
		}
	}
	// The recovered corpus evaluates like a RAM one.
	out := evalAll(t, c2, spanjoin.Anchored(`.*x{mail [a-z]+@[a-z]+}.*`))
	if len(out) != 2 {
		t.Fatalf("matched %d docs after recovery, want 2", len(out))
	}
}

// TestDurableEmptyDocument pins the satellite contract: Add("") is a
// valid, countable, durable document.
func TestDurableEmptyDocument(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	ids, err := c.AddErrCtx(context.Background(), "")
	if err != nil {
		t.Fatalf("AddErrCtx(\"\"): %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after Add(\"\"), want 1", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openDurable(t, dir)
	if c2.Len() != 1 {
		t.Fatalf("Len = %d after reopen, want 1", c2.Len())
	}
	got, ok := c2.Doc(ids[0])
	if !ok || got != "" {
		t.Fatalf("Doc = %q,%v, want the empty document", got, ok)
	}
	// The empty document participates in evaluation: an anchored pattern
	// matching the empty string finds it.
	n, err := c2.Count(context.Background(), spanjoin.Anchored(`x{(a|)}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := n.Uint64(); !ok || got != 1 {
		t.Fatalf("Count over empty doc = %v,%v, want 1", got, ok)
	}
}

func TestDurableFreshDirectoryCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	c := openDurable(t, dir)
	if c.Len() != 0 {
		t.Fatalf("fresh corpus Len = %d", c.Len())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("data dir not created: %v", err)
	}
}

func TestDurableSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir, spanjoin.WithShards(2))
	for i := 0; i < 10; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("pre-snapshot %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(context.Background()); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("post-snapshot %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.DurabilityStats()
	if ds.Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", ds.Snapshots)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openDurable(t, dir, spanjoin.WithShards(2))
	if c2.Len() != 15 {
		t.Fatalf("Len = %d after snapshot+log recovery, want 15", c2.Len())
	}
	ds2 := c2.DurabilityStats()
	if ds2.RecoveredDocs != 15 || ds2.ReplayedRecords != 5 {
		t.Fatalf("recovery stats = %+v, want 10 snapshot + 5 replayed", ds2)
	}
}

// TestDurableSnapshotWithEmptyLog covers the recovery edge case where
// the snapshot holds everything and the log nothing.
func TestDurableSnapshotWithEmptyLog(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("doc %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openDurable(t, dir)
	if c2.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c2.Len())
	}
	ds := c2.DurabilityStats()
	if ds.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0 (snapshot-only)", ds.ReplayedRecords)
	}
}

// TestDurableLogOnlyRecovery covers the opposite edge: no snapshot was
// ever written, everything comes from the log.
func TestDurableLogOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	for i := 0; i < 7; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("doc %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openDurable(t, dir)
	ds := c2.DurabilityStats()
	if c2.Len() != 7 || ds.ReplayedRecords != 7 {
		t.Fatalf("Len=%d ReplayedRecords=%d, want 7/7", c2.Len(), ds.ReplayedRecords)
	}
}

func TestDurableCorruptionIsTyped(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	for i := 0; i < 8; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("a document with some body %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the log's interior: a mid-file bit flip with intact records
	// after it cannot be crash residue.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logPath string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".log" {
			logPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = spanjoin.Open(dir)
	if err == nil {
		t.Fatal("Open succeeded over a corrupt log")
	}
	if !errors.Is(err, spanjoin.ErrCorrupt) {
		t.Fatalf("err = %v, want errors.Is(..., ErrCorrupt)", err)
	}
	if got := spanjoin.FailureClass(err); got != spanjoin.FailureCorrupt {
		t.Fatalf("FailureClass = %q, want %q", got, spanjoin.FailureCorrupt)
	}
}

// TestDurableTornTailRepaired truncates the log mid-record — crash
// residue — and expects silent repair, not ErrCorrupt.
func TestDurableTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("survives %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".log" {
			p := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	c2 := openDurable(t, dir)
	if c2.Len() != 4 {
		t.Fatalf("Len = %d after torn-tail repair, want 4", c2.Len())
	}
	if ds := c2.DurabilityStats(); ds.TornBytesRepaired == 0 {
		t.Fatal("TornBytesRepaired = 0, want > 0")
	}
}

// TestDurableBackgroundSnapshotter drives the WithSnapshotThreshold
// loop: enough appends must trigger an automatic snapshot, and Close
// must stop the loop without leaking its goroutine (leakcheck wraps the
// whole lifecycle; run with -race to exercise the capture paths).
func TestDurableBackgroundSnapshotter(t *testing.T) {
	leakcheck.Check(t, func() {
		dir := t.TempDir()
		c, err := spanjoin.Open(dir,
			spanjoin.WithSync(spanjoin.SyncInterval),
			spanjoin.WithSyncInterval(5*time.Millisecond),
			spanjoin.WithSnapshotThreshold(4096))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("document %04d padding padding padding padding", i)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.DurabilityStats().Snapshots == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		ds := c.DurabilityStats()
		if ds.Snapshots == 0 {
			t.Fatal("background snapshotter never fired")
		}
		if ds.Syncs == 0 {
			t.Fatal("interval policy never synced")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// Close is idempotent.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		c2, err := spanjoin.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Len() != 200 {
			t.Fatalf("Len = %d after snapshotted recovery, want 200", c2.Len())
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableConcurrentAddsRecover exercises the serialized write path
// from many goroutines, then verifies every acked document recovers.
func TestDurableConcurrentAddsRecover(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir, spanjoin.WithShards(4))
	const writers, perWriter = 8, 50
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openDurable(t, dir, spanjoin.WithShards(4))
	if c2.Len() != writers*perWriter {
		t.Fatalf("Len = %d after reopen, want %d", c2.Len(), writers*perWriter)
	}
}

// TestDurableRAMNoOps pins the RAM corpus's durable no-ops: the methods
// exist, succeed, and report zero stats.
func TestDurableRAMNoOps(t *testing.T) {
	c := spanjoin.NewCorpus()
	if c.Durable() {
		t.Fatal("RAM corpus claims durability")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if ds := c.DurabilityStats(); ds != (spanjoin.DurabilityStats{}) {
		t.Fatalf("RAM DurabilityStats = %+v, want zero", ds)
	}
	if _, err := c.AddErrCtx(context.Background(), "still works"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableIndexRecovery ensures the skip index is rebuilt over
// recovered documents: a literal-bearing query must still skip
// non-candidates.
func TestDurableIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir, spanjoin.WithIndex())
	if _, err := c.AddErrCtx(context.Background(), "the needle document"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.AddErrCtx(context.Background(), fmt.Sprintf("hay %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openDurable(t, dir, spanjoin.WithIndex())
	if !c2.Indexed() {
		t.Fatal("index not enabled after reopen")
	}
	ms, err := c2.Eval(context.Background(), spanjoin.Search(`x{needle}`))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	var n int
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
		n++
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("needle matched %d times after recovery, want 1", n)
	}
	if st := ms.Stats(); st.SkippedIndex == 0 {
		t.Fatalf("skip index inert after recovery: %+v", st)
	}
}
