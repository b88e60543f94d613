package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"spanjoin"
	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
)

func init() {
	register("EO", "Observability — per-query stage tracing overhead on the E1/EC hot paths; enumerate allocations with tracing off", runEO)
}

// eoPass drains one corpus evaluation under ctx and returns its wall
// time and match count.
func eoPass(ctx context.Context, c *spanjoin.Corpus, target spanjoin.Target) (time.Duration, int) {
	t0 := time.Now()
	ms, err := c.Eval(ctx, target)
	if err != nil {
		panic(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ms.Close()
	matches := 0
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
		matches++
	}
	if err := ms.Err(); err != nil {
		panic(err)
	}
	return time.Since(t0), matches
}

// eoCompare runs the workload traced and untraced (interleaved, best of
// rounds each) and adds one table row with the relative overhead.
func eoCompare(t *table, label string, rounds int, run func(ctx context.Context) (time.Duration, int)) {
	bg := context.Background()
	var off, on time.Duration
	var matches int
	run(bg) // warmup: caches, pools, page faults
	for r := 0; r < rounds; r++ {
		d, m := run(bg)
		if off == 0 || d < off {
			off, matches = d, m
		}
		ctx, _ := spanjoin.WithTrace(bg)
		if d, _ := run(ctx); on == 0 || d < on {
			on = d
		}
	}
	overhead := 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	t.add(label, off, on, fmt.Sprintf("%+.1f%%", overhead), matches)
}

// allocsPerRun hand-rolls testing.AllocsPerRun for a non-test binary:
// mallocs per call of f, averaged over runs, single-threaded.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func runEO(quick bool) {
	nDocs, rounds, e1reps := 2000, 9, 200
	if quick {
		nDocs, rounds, e1reps = 400, 3, 100
	}

	fmt.Println("Per-query stage tracing is opt-in via the context (WithTrace); the engine")
	fmt.Println("checks for a trace once per evaluation, never per tuple. Overhead of a")
	fmt.Println("traced pass over an untraced one, best of", rounds, "interleaved rounds:")
	fmt.Println()

	t := newTable("workload", "untraced", "traced", "overhead", "matches")

	// E1-style: the enumeration kernel wrapped in the corpus engine, one
	// document, one worker — the configuration where per-query costs are
	// least amortized.
	e1doc := strings.Repeat("aab", e1reps)
	e1sp, err := spanjoin.Compile(".*x{a+}.*y{b+}.*")
	if err != nil {
		panic(err)
	}
	ce1 := spanjoin.NewCorpus(spanjoin.WithShards(1), spanjoin.WithWorkers(1))
	ce1.Add(e1doc)
	eoCompare(t, "E1 single-doc enumerate", rounds, func(ctx context.Context) (time.Duration, int) {
		return eoPass(ctx, ce1, spanjoin.Of(e1sp))
	})

	// EC-style: the sharded corpus search fan-out over the synthetic
	// document workload.
	cec := spanjoin.NewCorpus(spanjoin.WithShards(4), spanjoin.WithWorkers(4))
	cec.AddAll(ecDocs(nDocs)...)
	eoCompare(t, fmt.Sprintf("EC search, %d docs", nDocs), rounds, func(ctx context.Context) (time.Duration, int) {
		return eoPass(ctx, cec, spanjoin.Search(ecPattern))
	})
	t.print()

	fmt.Println()
	fmt.Println("Enumerate hot path with tracing off: allocations per drained document")
	fmt.Println("beyond the delivered tuples themselves (the //spanjoin:hotpath gate).")
	fmt.Println()

	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	s := strings.Repeat("aab", 40)
	e, err := enum.Prepare(a, s)
	if err != nil {
		panic(err)
	}
	tuples := 0
	drain := func() {
		for {
			if _, ok := e.Next(); !ok {
				return
			}
			tuples++
		}
	}
	drain() // count the result set once
	perDoc := allocsPerRun(20, func() {
		e.Reset(s)
		for {
			if _, ok := e.Next(); !ok {
				return
			}
		}
	})
	extra := perDoc - float64(tuples)
	if extra < 0 {
		extra = 0
	}
	at := newTable("tuples/doc", "allocs/doc", "beyond tuples", "per-Next extra")
	at.add(tuples, fmt.Sprintf("%.1f", perDoc), fmt.Sprintf("%.1f", extra),
		fmt.Sprintf("%.3f", extra/float64(tuples)))
	at.print()
}
