package corpus

import (
	"fmt"
	"sync"
	"testing"

	"spanjoin/internal/wal"
)

func TestStoreAddGetRoundtrip(t *testing.T) {
	s := NewStore(4)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	var ids []DocID
	for i := 0; i < 37; i++ {
		ids = append(ids, s.Add(fmt.Sprintf("doc-%d", i)))
	}
	if s.Len() != 37 {
		t.Fatalf("Len = %d, want 37", s.Len())
	}
	for i, id := range ids {
		doc, ok := s.Get(id)
		if !ok || doc != fmt.Sprintf("doc-%d", i) {
			t.Fatalf("Get(%d) = %q, %v", id, doc, ok)
		}
	}
	if _, ok := s.Get(DocID(1 << 40)); ok {
		t.Fatal("Get of unknown ID reported ok")
	}
}

// TestStoreSequentialIDs: a single writer's Adds return 0, 1, 2, … on
// every shard count — on a RAM store, and on a durable store, where the
// sequence continues across a reopen and every earlier ID still resolves
// to its document.
func TestStoreSequentialIDs(t *testing.T) {
	for n := 1; n <= 5; n++ {
		t.Run(fmt.Sprintf("ram/shards=%d", n), func(t *testing.T) {
			s := NewStore(n)
			for want := DocID(0); want < 13; want++ {
				if got := s.Add(fmt.Sprint(want)); got != want {
					t.Fatalf("Add #%d returned ID %d", want, got)
				}
			}
		})
		t.Run(fmt.Sprintf("durable/shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			var next DocID
			// Seven documents per run: the reopen lands mid-rotation on
			// every shard count above one.
			for run := 0; run < 2; run++ {
				s, err := OpenStore(dir, n, wal.Options{Policy: wal.SyncNever}, 0)
				if err != nil {
					t.Fatal(err)
				}
				for id := DocID(0); id < next; id++ {
					if doc, ok := s.Get(id); !ok || doc != fmt.Sprint(id) {
						t.Fatalf("run %d: Get(%d) = %q, %v after reopen", run, id, doc, ok)
					}
				}
				for i := 0; i < 7; i++ {
					got, err := s.AddErr(fmt.Sprint(next))
					if err != nil {
						t.Fatal(err)
					}
					if got != next {
						t.Fatalf("run %d: Add #%d returned ID %d", run, next, got)
					}
					next++
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestStoreDefaultsShardCount(t *testing.T) {
	if n := NewStore(0).NumShards(); n < 1 {
		t.Fatalf("NumShards = %d with default", n)
	}
}

// TestStoreConcurrentAddStableIDs: IDs handed out under concurrent Adds
// must be unique and must keep resolving to the document they were
// assigned to.
func TestStoreConcurrentAddStableIDs(t *testing.T) {
	s := NewStore(8)
	const goroutines, perG = 8, 500
	got := make([][]DocID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				got[g] = append(got[g], s.Add(fmt.Sprintf("g%d-i%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[DocID]bool)
	for g := range got {
		for i, id := range got[g] {
			if seen[id] {
				t.Fatalf("duplicate DocID %d", id)
			}
			seen[id] = true
			doc, ok := s.Get(id)
			if !ok || doc != fmt.Sprintf("g%d-i%d", g, i) {
				t.Fatalf("Get(%d) = %q, %v; want g%d-i%d", id, doc, ok, g, i)
			}
		}
	}
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
}
