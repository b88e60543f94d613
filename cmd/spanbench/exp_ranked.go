package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"spanjoin"
)

func init() {
	register("EN", "Ranked access — counting, pagination and sampling without enumeration", runEN)
}

// drainCount drains the iterator and returns the number of matches.
func drainCount(ms *spanjoin.Matches) int {
	n := 0
	for {
		if _, ok := ms.Next(); !ok {
			return n
		}
		n++
	}
}

func runEN(quick bool) {
	fmt.Println("Count-by-DP vs count-by-drain as the output grows (pattern `.*x{a+}.*` on aⁿ: n(n+1)/2 tuples).")
	fmt.Println("Claim: the ranked count is one graph build + DP — linear in |s| and flat in the output size —")
	fmt.Println("while draining pays for every tuple; the ratio must grow with the result count.")
	fmt.Println()
	sp := spanjoin.MustCompile(".*x{a+}.*")
	sizes := []int{256, 512, 1024, 2048}
	if quick {
		sizes = sizes[:3]
	}
	t := newTable("|s|", "tuples", "count (DP)", "drain", "drain/count", "count/|s| (ns)")
	for _, n := range sizes {
		doc := strings.Repeat("a", n)
		var total spanjoin.MatchCount
		dCount := timeIt(func() {
			r, err := sp.Ranked(doc)
			if err != nil {
				panic(err)
			}
			total = r.Count()
		})
		var drained int
		dDrain := timeIt(func() {
			ms, err := sp.Iterate(context.Background(), doc)
			if err != nil {
				panic(err)
			}
			drained = drainCount(ms)
		})
		u, _ := total.Uint64()
		if u != uint64(drained) {
			panic(fmt.Sprintf("EN: DP count %v != drain count %d", total, drained))
		}
		t.add(n, total.String(), dCount, dDrain,
			fmt.Sprintf("%.1fx", float64(dDrain)/float64(dCount)),
			float64(dCount.Nanoseconds())/float64(n))
	}
	t.print()

	fmt.Println()
	fmt.Println("Deep pagination (|s| = 2048, ~2.1M tuples): Page(offset, 10) via one DAG descent vs")
	fmt.Println("skipping by Next — the descent must stay flat while stepping grows with the offset.")
	fmt.Println()
	doc := strings.Repeat("a", 2048)
	r, err := sp.Ranked(doc)
	if err != nil {
		panic(err)
	}
	u64Total, _ := r.Count().Uint64()
	offsets := []uint64{1_000, 100_000, u64Total - 10}
	if quick {
		offsets = offsets[:2]
	}
	t2 := newTable("offset", "page via descent", "page via Next-skip", "stepped/descent")
	for _, off := range offsets {
		var page []spanjoin.Match
		dDescent := timeIt(func() { page = r.Page(off, 10) })
		var stepped []spanjoin.Match
		dStep := timeIt(func() {
			ms, err := sp.Iterate(context.Background(), doc)
			if err != nil {
				panic(err)
			}
			for i := uint64(0); i < off; i++ {
				if _, ok := ms.Next(); !ok {
					panic("EN: stepped past the end")
				}
			}
			for len(stepped) < 10 {
				m, ok := ms.Next()
				if !ok {
					break
				}
				stepped = append(stepped, m)
			}
			// spanlint/closecheck: read Err after the drain.
			if err := ms.Err(); err != nil {
				panic(err)
			}
		})
		if len(page) != len(stepped) {
			panic(fmt.Sprintf("EN: page sizes differ at offset %d: %d vs %d", off, len(page), len(stepped)))
		}
		for i := range page {
			a, _ := page[i].Span("x")
			b, _ := stepped[i].Span("x")
			if a != b {
				panic(fmt.Sprintf("EN: page content diverges at offset %d", off))
			}
		}
		t2.add(off, dDescent, dStep, fmt.Sprintf("%.1fx", float64(dStep)/float64(dDescent)))
	}
	t2.print()

	fmt.Println()
	fmt.Println("Exact counting past uint64 (k = 12 ordered disjoint spans on a²⁰⁰: C(212,24) results),")
	fmt.Println("verified against the closed form, plus uniform sampling from that set.")
	fmt.Println()
	var sb strings.Builder
	sb.WriteString("a*")
	for i := 0; i < 12; i++ {
		sb.WriteString("x")
		sb.WriteByte(byte('a' + i))
		sb.WriteString("{a+}a*")
	}
	big12 := spanjoin.MustCompile(sb.String())
	bigDoc := strings.Repeat("a", 200)
	var rb *spanjoin.Ranked
	var cnt spanjoin.MatchCount
	dBig := timeIt(func() {
		var err error
		rb, err = big12.Ranked(bigDoc)
		if err != nil {
			panic(err)
		}
		cnt = rb.Count()
	})
	want := new(big.Int).Binomial(212, 24)
	if cnt.BigInt().Cmp(want) != 0 {
		panic("EN: big count does not match C(212,24)")
	}
	_, fits := cnt.Uint64()
	dSample := timeIt(func() {
		if rb.Sample(rand.New(rand.NewSource(1)), 1) == nil {
			panic("EN: sampling the big result set failed")
		}
	})
	t3 := newTable("result set", "count", "fits uint64", "count time", "sample(1)")
	t3.add("C(212,24)", cnt.String(), fits, dBig, dSample)
	t3.print()
}
