package spanjoin

import (
	"fmt"
	"runtime"
	"testing"
)

// coldDoc is a 282-byte document shaped like e2ebench's address corpora;
// coldPattern(i) matches it once for every i.
const coldDoc = "Parcel 4 leaves the depot at noon. " +
	"erin wrote to grace at dave@mail.be about the lease. " +
	"bob visited Molenstraat 12, 4711 Ashford. " +
	"the report in Namur was late and carol called the police. " +
	"frank wrote about the parcel for heidi. " +
	"dave called Dorpstraat 7, 2203 Bexley before the rain."

// coldPattern returns the i-th street lookup shaped like e2ebench's adhoc
// ones; each matches coldDoc once. No cache sits between the lookups, so
// every one compiles afresh.
func coldPattern(i int) string {
	street := [...]string{"Molenstraat 12", "Dorpstraat 7"}[i%2]
	return fmt.Sprintf("s{%s}, z{[0-9][0-9][0-9][0-9]} c{[A-Z][a-z]+}", street)
}

// coldLookup takes one never-seen pattern from compilation through its
// plan, and, when swept, through its first count and its first page
// window on coldDoc: a window build, ten results, and the release of its
// graph arenas. It returns the spanner, which holds the plan and kernels.
func coldLookup(tb testing.TB, pattern string, swept bool) *Spanner {
	sp, err := CompileSearch(pattern)
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := sp.compiledPlan()
	if err != nil {
		tb.Fatal(err)
	}
	if !swept {
		return sp
	}
	e := p.NewEnumerator()
	if e.CountDoc(coldDoc).IsZero() {
		tb.Fatalf("%s counts nothing on the document", pattern)
	}
	e.Reset(coldDoc)
	for k := 0; k < 10; k++ {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	e.Release()
	return sp
}

// BenchmarkColdPlan is the engine's share of a cache-miss lookup:
// CompileSearch, the plan, the first CountDoc on a 282-byte address
// document and the first window build (swept), or the compilation and
// plan alone of a pattern whose documents the index excludes (unswept).
// kept reports the heap one cached cold plan retains after a swept
// lookup — spanner, plan and kernels — averaged over 200 patterns held
// at once.
func BenchmarkColdPlan(b *testing.B) {
	for _, swept := range []bool{true, false} {
		name := "unswept"
		if swept {
			name = "swept"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				coldLookup(b, coldPattern(i), swept)
				i++
			}
		})
	}
	b.Run("kept", func(b *testing.B) {
		const plans = 200
		var kept float64
		for b.Loop() {
			held := make([]*Spanner, plans)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range held {
				held[i] = coldLookup(b, coldPattern(i), true)
			}
			runtime.GC()
			runtime.GC() // the second cycle clears the pools' victim caches
			runtime.ReadMemStats(&after)
			kept = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / plans
			runtime.KeepAlive(held)
		}
		b.ReportMetric(kept, "B/plan")
	})
}
