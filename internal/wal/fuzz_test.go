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

// buildDir writes a small but structurally varied data directory — a
// snapshot covering part of the history when withSnap is set, plus a log
// carrying the rest — and returns the ordered document history.
func buildDir(t *testing.T, dir string, seed []byte, withSnap bool) []string {
	t.Helper()
	rec, err := Open(dir, 2, Options{Policy: SyncNever})
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	var history []string
	add := func(doc string) {
		if _, err := rec.Log.Append(context.Background(), Record{uint64ToShard(len(history)), doc}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		history = append(history, doc)
	}
	// Derive documents from the seed so the fuzzer steers content (CRC
	// collisions, magic-like bytes inside documents, empty documents).
	for i := 0; i < 4; i++ {
		lo := i * len(seed) / 4
		hi := (i + 1) * len(seed) / 4
		add(string(seed[lo:hi]))
	}
	if withSnap {
		shards := make([][]string, 2)
		for i, d := range history {
			shards[i%2] = append(shards[i%2], d)
		}
		gen, err := rec.Log.Rotate()
		if err != nil {
			t.Fatalf("Rotate: %v", err)
		}
		if err := WriteSnapshot(dir, gen, rec.Log.LastSeq(), shards); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		rec.Log.Prune(gen)
		add(fmt.Sprintf("post-snapshot %x", seed))
	}
	if err := rec.Log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return history
}

func uint64ToShard(i int) uint32 { return uint32(i % 2) }

// FuzzRecover mutates a valid data directory and pins recovery's two
// absolute invariants — Open never panics, and never invents a document
// that was not written — plus the torn-tail promise: a truncation-only
// mutation (mutate == false) is crash residue and must recover cleanly
// as a prefix of the history, never as ErrCorrupt.
func FuzzRecover(f *testing.F) {
	f.Add([]byte("some documents for the corpus, split four ways"), uint16(3), byte(0x01), true, false)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint16(60), byte(0xff), false, false)
	f.Add([]byte("aaaa"), uint16(9), byte(0x80), true, true)
	f.Add([]byte(""), uint16(0), byte(0x00), false, true)
	f.Fuzz(func(t *testing.T, seed []byte, pos uint16, flip byte, withSnap, mutate bool) {
		dir := t.TempDir()
		history := buildDir(t, dir, seed, withSnap)
		inOriginal := map[string]int{}
		for _, d := range history {
			inOriginal[d]++
		}

		// Mutate the active (highest-generation) log file.
		logs, _, err := listGens(dir)
		if err != nil || len(logs) == 0 {
			t.Fatalf("listGens: %v / %d logs", err, len(logs))
		}
		path := filepath.Join(dir, logName(logs[len(logs)-1]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if mutate {
			if len(data) > 0 {
				data[int(pos)%len(data)] ^= flip
			}
		} else {
			data = data[:int(pos)%(len(data)+1)]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		rec, err := Open(dir, 2, Options{})
		if err != nil {
			if mutate {
				// Any typed failure is acceptable for arbitrary damage, but
				// it must be the typed corruption class, not an ad-hoc error.
				if !errors.Is(err, resilience.ErrCorrupt) {
					t.Fatalf("mutation produced an untyped error: %v", err)
				}
				return
			}
			t.Fatalf("truncation (crash residue) must recover, got %v", err)
		}
		defer rec.Log.Close()

		// Never invent: every recovered document was written, no document
		// more often than it was written.
		got := map[string]int{}
		var total int
		for _, sh := range rec.Shards {
			for _, d := range sh {
				got[d]++
				total++
			}
		}
		for d, n := range got {
			if n > inOriginal[d] {
				t.Fatalf("recovery invented document %q (%d > %d)", d, n, inOriginal[d])
			}
		}
		if !mutate {
			// Truncation loses only a suffix: the recovered count is
			// snapshot docs + a prefix of the log, and within each shard the
			// surviving documents appear in their original order.
			want := int(rec.Stats.SnapshotDocs + rec.Stats.Replayed)
			if total != want {
				t.Fatalf("recovered %d docs, stats say %d", total, want)
			}
			perShard := make([][]string, 2)
			for i, d := range history {
				perShard[i%2] = append(perShard[i%2], d)
			}
			for si, sh := range rec.Shards {
				for i, d := range sh {
					if i >= len(perShard[si]) || perShard[si][i] != d {
						t.Fatalf("shard %d position %d: got %q, not a prefix of history", si, i, d)
					}
				}
			}
		}
	})
}
