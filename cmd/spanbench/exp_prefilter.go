package main

import (
	"context"
	"fmt"
	"time"

	"spanjoin"
	"spanjoin/internal/workload"
)

func init() {
	register("EP", "Prefiltering and the skip index — docs skipped and throughput vs selectivity, indexed vs full scan", runEP)
}

// epDocs generates the corpus: base documents without the needle, with the
// needle sentence planted in a seeded hitRate fraction of them.
func epDocs(n int, hitRate float64) (docs []string, matching int) {
	r := workload.Rand(777)
	docs = make([]string, n)
	for i := range docs {
		d := workload.Document(r, workload.DocumentOptions{Sentences: 4})
		if r.Float64() < hitRate {
			d += " the police arrived."
			matching++
		}
		docs[i] = d
	}
	return docs, matching
}

// epPass drains one evaluation and returns the match count and stats.
func epPass(c *spanjoin.Corpus, sp *spanjoin.Spanner) (int, spanjoin.EvalStats) {
	ms, err := c.Eval(context.Background(), spanjoin.Of(sp))
	if err != nil {
		panic(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ms.Close()
	n := 0
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
		n++
	}
	if err := ms.Err(); err != nil {
		panic(err)
	}
	return n, ms.Stats()
}

func runEP(quick bool) {
	nDocs := 4000
	rounds := 3
	if quick {
		nDocs, rounds = 800, 2
	}
	sp := spanjoin.MustCompileSearch(`w{police}`)
	fmt.Printf("Corpus: %d synthetic documents; query: search `w{police}` (required literal %q).\n",
		nDocs, sp.RequiredLiteral())
	fmt.Println("Full scan = unindexed corpus: every document is at least substring-scanned.")
	fmt.Println("Indexed = WithIndex: trigram postings select candidates; non-candidates are never visited.")
	fmt.Println("Best of", rounds, "passes after warmup; result counts must agree.")
	fmt.Println()

	t := newTable("selectivity", "matching docs", "scan visited", "scan time",
		"idx visited", "idx skipped", "idx time", "skip ratio", "speedup")
	for _, rate := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		docs, matching := epDocs(nDocs, rate)

		plain := spanjoin.NewCorpus(spanjoin.WithShards(8))
		plain.AddAll(docs...)
		indexed := spanjoin.NewCorpus(spanjoin.WithShards(8), spanjoin.WithIndex())
		indexed.AddAll(docs...)

		var nPlain, nIdx int
		var stPlain, stIdx spanjoin.EvalStats
		passPlain := func() { nPlain, stPlain = epPass(plain, sp) }
		passIdx := func() { nIdx, stIdx = epPass(indexed, sp) }
		passPlain()
		passIdx()
		bestPlain, bestIdx := time.Duration(0), time.Duration(0)
		for r := 0; r < rounds; r++ {
			if d := timeIt(passPlain); bestPlain == 0 || d < bestPlain {
				bestPlain = d
			}
			if d := timeIt(passIdx); bestIdx == 0 || d < bestIdx {
				bestIdx = d
			}
		}
		if nPlain != nIdx {
			panic(fmt.Sprintf("EP: index changed results: %d vs %d", nPlain, nIdx))
		}
		if stIdx.Visited() > stPlain.Visited() {
			panic(fmt.Sprintf("EP: index visited more docs than the scan: %+v vs %+v", stIdx, stPlain))
		}
		t.add(
			fmt.Sprintf("%.1f%%", rate*100),
			matching,
			stPlain.Visited(),
			bestPlain,
			stIdx.Visited(),
			stIdx.SkippedIndex,
			bestIdx,
			fmt.Sprintf("%.1f%%", float64(stIdx.SkippedIndex)/float64(nDocs)*100),
			fmt.Sprintf("%.2fx", bestPlain.Seconds()/bestIdx.Seconds()),
		)
	}
	t.print()

	fmt.Println()
	fmt.Println("Composed-spanner prefilter: Join carries both operands' literals, so the")
	fmt.Println("corpus skips documents missing either factor (the PR's headline bugfix).")
	fmt.Println()
	r := workload.Rand(778)
	docs := make([]string, nDocs/2)
	for i := range docs {
		d := workload.Document(r, workload.DocumentOptions{Sentences: 4, AddressRate: 0.3})
		if r.Float64() < 0.1 {
			d += " the police arrived."
		}
		docs[i] = d
	}
	joined, err := spanjoin.Join(
		spanjoin.MustCompile(`.*x{police}.*`),
		spanjoin.MustCompile(`.*y{Belgium}.*`),
	)
	if err != nil {
		panic(err)
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(8), spanjoin.WithIndex())
	c.AddAll(docs...)
	var n int
	var st spanjoin.EvalStats
	pass := func() { n, st = epPass(c, joined) }
	pass()
	best := time.Duration(0)
	for r := 0; r < rounds; r++ {
		if d := timeIt(pass); best == 0 || d < best {
			best = d
		}
	}
	t2 := newTable("required literals", "docs", "visited", "skipped by index", "matches", "pass time")
	t2.add(fmt.Sprintf("%v", joined.RequiredLiterals()), len(docs), st.Visited(), st.SkippedIndex, n, best)
	t2.print()
}
