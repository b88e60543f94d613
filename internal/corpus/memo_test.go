package corpus

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
)

// TestCountMemoIncremental: with a memo, a count after appends visits
// only the new documents, and its total, per-document counts and page
// equal a full sweep's — with and without the skip index.
func TestCountMemoIncremental(t *testing.T) {
	const pattern = `.*x{ab+}.*`
	doc := func(i int) string { return fmt.Sprintf("%d %s", i, []string{"ab", "zz", "abb ab", ""}[i%4]) }
	for _, shards := range []int{1, 3} {
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/indexed=%v", shards, indexed), func(t *testing.T) {
				s := NewStore(shards)
				if indexed {
					s.EnableIndex()
				}
				p, err := enum.NewPlan(rgx.MustCompilePattern(pattern))
				if err != nil {
					t.Fatal(err)
				}
				opt := EvalOptions{Required: prefilter.New("ab")}
				ctx := context.Background()
				memo := &CountMemo{}
				for batch, reused := 0, 0; batch < 3; batch++ {
					for i := 0; i < 7*batch; i++ {
						s.Add(doc(s.Len()))
					}
					got, err := s.CountPlan(ctx, p, memo, opt, true)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.CountPlan(ctx, p, nil, opt, true)
					if err != nil {
						t.Fatal(err)
					}
					if got.Total != want.Total || !reflect.DeepEqual(got.PerDoc, want.PerDoc) {
						t.Fatalf("batch %d: memo count %v %v, full sweep %v %v", batch, got.Total, got.PerDoc, want.Total, want.PerDoc)
					}
					if got.Reused != uint64(reused) || got.Scanned+got.Skipped+got.Reused != uint64(s.Len()) {
						t.Fatalf("batch %d: counters %+v, want %d reused of %d", batch, got, reused, s.Len())
					}
					reused = s.Len()

					gotPg, err := s.PagePlan(ctx, p, memo, opt, 1, 4)
					if err != nil {
						t.Fatal(err)
					}
					wantPg, err := s.PagePlan(ctx, p, nil, opt, 1, 4)
					if err != nil {
						t.Fatal(err)
					}
					if gotPg.Reused != uint64(s.Len()) || gotPg.Scanned != 0 {
						t.Fatalf("batch %d: page after a count scanned %d, reused %d", batch, gotPg.Scanned, gotPg.Reused)
					}
					if gotPg.Total != wantPg.Total || fmt.Sprint(gotPg.Matches) != fmt.Sprint(wantPg.Matches) {
						t.Fatalf("batch %d: memo page %v, full-sweep page %v", batch, gotPg.Matches, wantPg.Matches)
					}
				}
			})
		}
	}
}

// TestCountMemoUnchangedOnError: a count that fails publishes nothing.
func TestCountMemoUnchangedOnError(t *testing.T) {
	s, _, p := countStore(t, 2, []string{"aa", "a", "aaa"}, `a*x{a+}a*`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	memo := &CountMemo{}
	if _, err := s.CountPlan(ctx, p, memo, EvalOptions{}, false); err == nil {
		t.Fatal("cancelled CountPlan returned nil error")
	}
	if got := memo.load(); got != nil {
		t.Fatalf("failed count published %+v", got)
	}
}

// TestCountMemoPublishOverlap: sweeps that started from an older mark
// append only what lies past the current one, and a shorter sweep
// publishes nothing.
func TestCountMemoPublishOverlap(t *testing.T) {
	s := NewStore(1)
	for i := 0; i < 6; i++ {
		s.Add("doc")
	}
	sweep := func(from, end int) shardSweep {
		sw := shardSweep{from: from, end: end}
		for pos := from; pos < end; pos++ {
			sw.docs = append(sw.docs, DocCount{Doc: DocID(pos), N: ranked.CountOf(uint64(pos + 1))})
			sw.total = sw.total.Add(ranked.CountOf(uint64(pos + 1)))
		}
		return sw
	}
	m := &CountMemo{}
	m.publish(s, []shardSweep{sweep(0, 2)})
	m.publish(s, []shardSweep{sweep(0, 5)}) // overlaps [0, 2)
	m.publish(s, []shardSweep{sweep(0, 3)}) // behind the mark
	got := m.load()[0]
	want := sweep(0, 5)
	if got.mark != 5 || got.total != want.total || !reflect.DeepEqual(got.docs, want.docs) {
		t.Fatalf("memo = %+v, want mark 5 total %v docs %v", got, want.total, want.docs)
	}
}
