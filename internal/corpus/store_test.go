package corpus

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
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
// to its document. A batch the log rejects (one document over its record
// cap) adds nothing and takes no IDs.
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
				s, err := OpenStore(dir, n, wal.Options{Policy: wal.SyncNever, MaxRecord: 64}, 0)
				if err != nil {
					t.Fatal(err)
				}
				for id := DocID(0); id < next; id++ {
					if doc, ok := s.Get(id); !ok || doc != fmt.Sprint(id) {
						t.Fatalf("run %d: Get(%d) = %q, %v after reopen", run, id, doc, ok)
					}
				}
				for i := 0; i < 7; i++ {
					if ids, err := s.AddErrCtx(context.Background(), "fits", string(make([]byte, 100))); err == nil {
						t.Fatalf("run %d: batch with an oversize document added as %v", run, ids)
					}
					got, err := s.AddErrCtx(context.Background(), fmt.Sprint(next))
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != next {
						t.Fatalf("run %d: Add #%d returned ID %d", run, next, got[0])
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

// TestStoreAddAllocatesNothing: a single Add to a RAM store allocates
// nothing but its shard's amortized growth: the one-document batch and
// its ID stay on Add's stack, and one document needs no parallel fill.
func TestStoreAddAllocatesNothing(t *testing.T) {
	s := NewStore(2)
	alloctest.Assert(t, 1000, 0, func() { s.Add("doc") })
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

// TestAddAllMatchesAdd: AddAll batches return the IDs that Adds of the
// same documents return one by one, and Eval, Count and Page answer the
// same over both stores, with the skip index and without it. Batches of
// zero, one and uneven sizes, each followed by one Add, leave the
// round-robin mid-rotation on every shard count above one. The durable
// leg runs the batches on an OpenStore directory, whose log takes each
// as one append; reopened, it has every document back at its ID.
func TestAddAllMatchesAdd(t *testing.T) {
	var docs []string
	for i := range 64 {
		docs = append(docs, fmt.Sprintf("%d %s", i, []string{"ab", "zz", "abb ab", "", "b a"}[i%5]))
	}
	p, err := enum.NewPlan(rgx.MustCompilePattern(`.*x{ab+}.*`))
	if err != nil {
		t.Fatal(err)
	}
	opt := EvalOptions{Required: prefilter.New("ab")}
	for _, durable := range []bool{false, true} {
		for _, shards := range []int{1, 2, 7} {
			for _, indexed := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/indexed=%v", shards, indexed)
				if durable {
					name = "durable/" + name
				}
				t.Run(name, func(t *testing.T) {
					addAllMatchesAdd(t, durable, shards, indexed, docs, p, opt)
				})
			}
		}
	}
}

// addAllMatchesAdd is one leg of TestAddAllMatchesAdd.
func addAllMatchesAdd(t *testing.T, durable bool, shards int, indexed bool, docs []string, p *enum.Plan, opt EvalOptions) {
	ctx := context.Background()
	one, all := NewStore(shards), NewStore(shards)
	dir := t.TempDir()
	if durable {
		var err error
		if all, err = OpenStore(dir, shards, wal.Options{Policy: wal.SyncNever}, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { all.Close() })
	}
	if indexed {
		one.EnableIndex()
		all.EnableIndex()
	}
	rest := docs
	for _, k := range []int{0, 1, 13, 0, 1, 5, 37} {
		var want []DocID
		for _, d := range rest[:k+1] {
			want = append(want, one.Add(d))
		}
		got := append(all.AddAll(rest[:k]), all.Add(rest[k]))
		rest = rest[k+1:]
		if !slices.Equal(got, want) {
			t.Fatalf("batch of %d: AddAll+Add IDs %v, Adds %v", k, got, want)
		}

		wantRes, err := one.EvalPlan(ctx, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := all.EvalPlan(ctx, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := drainResults(t, gotRes), drainResults(t, wantRes); !reflect.DeepEqual(g, w) {
			t.Fatalf("batch of %d: Eval %v, want %v", k, g, w)
		}
		wantN, err := one.CountPlan(ctx, p, nil, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := all.CountPlan(ctx, p, nil, opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if gotN.Total != wantN.Total || !reflect.DeepEqual(gotN.PerDoc, wantN.PerDoc) {
			t.Fatalf("batch of %d: Count %v %v, want %v %v", k, gotN.Total, gotN.PerDoc, wantN.Total, wantN.PerDoc)
		}
		wantPg, err := one.PagePlan(ctx, p, nil, opt, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotPg, err := all.PagePlan(ctx, p, nil, opt, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if gotPg.Total != wantPg.Total || fmt.Sprint(gotPg.Matches) != fmt.Sprint(wantPg.Matches) {
			t.Fatalf("batch of %d: Page %v %v, want %v %v", k, gotPg.Total, gotPg.Matches, wantPg.Total, wantPg.Matches)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d documents left over", len(rest))
	}
	if !durable {
		return
	}
	if err := all.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, shards, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(docs) {
		t.Fatalf("reopened store holds %d documents, want %d", re.Len(), len(docs))
	}
	for i, d := range docs {
		if got, ok := re.Get(DocID(i)); !ok || got != d {
			t.Fatalf("reopened Get(%d) = %q, %v; want %q", i, got, ok, d)
		}
	}
}

// TestEnableIndexBesideAddAll: EnableIndex backfills the shards in
// parallel while AddAll batches and single Adds land on them. Afterwards
// every shard's index must cover exactly its documents, and an indexed
// count must equal one over the same documents without the index.
func TestEnableIndexBesideAddAll(t *testing.T) {
	s, plain := NewStore(3), NewStore(3)
	doc := func(g, i int) string { return fmt.Sprintf("%d %s %d", g, []string{"ab", "zz", "abb ab"}[i%3], i) }
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for b := 0; b < 30; b++ {
			batch := make([]string, b%7)
			for i := range batch {
				batch[i] = doc(1, 7*b+i)
			}
			s.AddAll(batch)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			s.Add(doc(2, i))
		}
	}()
	go func() {
		defer wg.Done()
		s.EnableIndex()
		s.EnableIndex()
	}()
	wg.Wait()
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.idx == nil {
			t.Fatalf("shard %d has no index", i)
		}
		if sh.idx.Len() != len(sh.docs) {
			t.Fatalf("shard %d: %d documents indexed of %d", i, sh.idx.Len(), len(sh.docs))
		}
		plain.AddAll(sh.docs)
	}
	p, err := enum.NewPlan(rgx.MustCompilePattern(`.*x{ab+}.*`))
	if err != nil {
		t.Fatal(err)
	}
	opt := EvalOptions{Required: prefilter.New("ab")}
	got, err := s.CountPlan(context.Background(), p, nil, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.CountPlan(context.Background(), p, nil, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || got.SkippedIndex == 0 {
		t.Fatalf("indexed count %v (%d skipped by the index), unindexed %v", got.Total, got.SkippedIndex, want.Total)
	}
}
