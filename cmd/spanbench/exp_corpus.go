package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"spanjoin"
	"spanjoin/internal/workload"
)

func init() {
	register("EC", "Corpus engine — sharded multi-document evaluation: throughput vs shards, compiled-query cache hit rate", runEC)
}

const ecPattern = `mail{[a-z]+@[a-z]+\.[a-z]+}`

// ecDocs generates the corpus workload: seeded synthetic documents, about
// half containing an e-mail address.
func ecDocs(n int) []string {
	r := workload.Rand(4242)
	docs := make([]string, n)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{
			Sentences: 4, EmailRate: 0.5,
		})
	}
	return docs
}

func runEC(quick bool) {
	nDocs := 2000
	rounds := 3
	if quick {
		nDocs, rounds = 400, 2
	}
	docs := ecDocs(nDocs)
	ctx := context.Background()

	fmt.Printf("Corpus: %d synthetic documents (~%d bytes each); query: search `%s`.\n",
		nDocs, len(docs[0]), ecPattern)
	fmt.Println("Throughput of Corpus.Eval(Search) fan-out vs shard count (workers = shards;")
	fmt.Println("GOMAXPROCS =", runtime.GOMAXPROCS(0), "caps real parallelism), best of", rounds, "passes after warmup.")
	fmt.Println()

	shardCounts := []int{1, 2, 4, 8, 16}
	var baseline float64
	t := newTable("shards", "workers", "pass time", "docs/sec", "matches", "speedup vs 1 shard")
	for _, shards := range shardCounts {
		c := spanjoin.NewCorpus(spanjoin.WithShards(shards), spanjoin.WithWorkers(shards))
		c.AddAll(docs...)
		matches := 0
		pass := func() {
			matches = 0
			ms, err := c.Eval(ctx, spanjoin.Search(ecPattern))
			if err != nil {
				panic(err)
			}
			// spanlint/closecheck: release the stream's pool slot.
			defer ms.Close()
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
				matches++
			}
			if err := ms.Err(); err != nil {
				panic(err)
			}
		}
		pass() // warmup: compiles the pattern into this corpus's cache
		best := time.Duration(0)
		for r := 0; r < rounds; r++ {
			if d := timeIt(pass); best == 0 || d < best {
				best = d
			}
		}
		docsPerSec := float64(nDocs) / best.Seconds()
		if shards == 1 {
			baseline = docsPerSec
		}
		t.add(shards, shards, best, fmt.Sprintf("%.0f", docsPerSec), matches,
			fmt.Sprintf("%.2fx", docsPerSec/baseline))
	}
	t.print()

	fmt.Println()
	fmt.Println("Compiled-query cache: distinct patterns queried repeatedly on one corpus")
	fmt.Println("(2Q admission, singleflight; repeated sources must not recompile).")
	fmt.Println()
	queries := []string{
		ecPattern,
		`user{[a-z]+}@`,
		`addr{[A-Z][a-z]+ [0-9]+}`,
		`city{Bruxelles|Gent|Liege}`,
		`word{police}`,
		`zip{[0-9][0-9][0-9][0-9]}`,
		`name{alice|bob|carol}`,
		`verb{visited|called|mailed}`,
	}
	cacheRounds := 25
	if quick {
		cacheRounds = 10
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(8))
	c.AddAll(docs...)
	start := time.Now()
	evals := 0
	for r := 0; r < cacheRounds; r++ {
		for _, q := range queries {
			ms, err := c.Eval(ctx, spanjoin.Search(q))
			if err != nil {
				panic(err)
			}
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
			}
			if err := ms.Err(); err != nil {
				panic(err)
			}
			// spanlint/closecheck: release the stream's pool slot.
			ms.Close()
			evals++
		}
	}
	elapsed := time.Since(start)
	st := c.CacheStats()
	t2 := newTable("evals", "distinct", "cache hits", "misses", "hit rate", "resident", "total time")
	t2.add(evals, len(queries), st.Hits, st.Misses,
		fmt.Sprintf("%.1f%%", st.HitRate()*100), st.Resident, elapsed)
	t2.print()
}
