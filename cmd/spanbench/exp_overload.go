package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"spanjoin"
)

func init() {
	register("ER", "Resilience — admission control under overload: latency and shed rate at 1x/4x/16x saturation, gated vs ungated", runER)
}

const erPattern = `mail{[a-z]+@[a-z]+\.[a-z]+}`

// erTrial is one overload configuration: clients concurrent callers against
// a corpus whose admission gate (when on) holds capacity slots and a queue
// of the same size.
type erTrial struct {
	clients  int
	capacity int
	gated    bool
}

// erRun hammers the corpus with trial.clients goroutines, each issuing
// queries back to back for the trial duration, and reports the completed
// query latencies plus the number of queries shed with ErrOverloaded.
func erRun(c *spanjoin.Corpus, trial erTrial, perClient int) (lat []time.Duration, shed int, err error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	ctx := context.Background()
	for i := 0; i < trial.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				start := time.Now()
				ms, evalErr := c.Eval(ctx, spanjoin.Search(erPattern))
				if evalErr != nil {
					mu.Lock()
					if errors.Is(evalErr, spanjoin.ErrOverloaded) {
						shed++
					} else if err == nil {
						err = evalErr
					}
					mu.Unlock()
					continue
				}
				for {
					if _, ok := ms.Next(); !ok {
						break
					}
				}
				evalErr = ms.Err()
				// spanlint/closecheck: release the stream's pool slot.
				ms.Close()
				d := time.Since(start)
				mu.Lock()
				if evalErr != nil && err == nil {
					err = evalErr
				}
				lat = append(lat, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, shed, err
}

// percentile returns the p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func runER(quick bool) {
	nDocs := 1500
	perClient := 8
	if quick {
		nDocs, perClient = 300, 4
	}
	docs := ecDocs(nDocs)

	// Capacity: enough gate slots to keep the machine busy without
	// oversubscription; each admitted evaluation runs a small worker pool so
	// concurrent pools contend for the same cores.
	capacity := runtime.GOMAXPROCS(0) / 2
	if capacity < 1 {
		capacity = 1
	}
	poolWorkers := 2

	fmt.Printf("Corpus: %d synthetic documents; query: search `%s`; per-eval pool: %d workers.\n",
		nDocs, erPattern, poolWorkers)
	fmt.Printf("Saturation n x means n x %d concurrent clients (capacity = %d gate slots, queue = %d).\n",
		capacity, capacity, capacity)
	fmt.Println("Gated corpora shed excess load fast with ErrOverloaded; ungated corpora accept")
	fmt.Println("everything and pay for it in tail latency. Shed queries cost ~0 and are retryable.")
	fmt.Println()

	t := newTable("saturation", "gate", "clients", "ok", "shed", "shed rate",
		"p50 latency", "p99 latency", "wall time")
	for _, mult := range []int{1, 4, 16} {
		for _, gated := range []bool{false, true} {
			var opts []spanjoin.CorpusOption
			opts = append(opts, spanjoin.WithWorkers(poolWorkers))
			if gated {
				opts = append(opts, spanjoin.WithMaxConcurrent(capacity), spanjoin.WithMaxQueue(capacity))
			}
			c := spanjoin.NewCorpus(opts...)
			c.AddAll(docs...)
			// Warmup compiles the pattern into this corpus's cache.
			ms, err := c.Eval(context.Background(), spanjoin.Search(erPattern))
			if err != nil {
				panic(err)
			}
			// spanlint/closecheck: Err then Close, even on the undrained
			// warmup stream.
			if err := ms.Err(); err != nil {
				panic(err)
			}
			ms.Close()

			trial := erTrial{clients: mult * capacity, capacity: capacity, gated: gated}
			start := time.Now()
			lat, shed, err := erRun(c, trial, perClient)
			wall := time.Since(start)
			if err != nil {
				panic(err)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			total := len(lat) + shed
			gateLabel := "off"
			if gated {
				gateLabel = "on"
			}
			t.add(fmt.Sprintf("%dx", mult), gateLabel, trial.clients, len(lat), shed,
				fmt.Sprintf("%.1f%%", 100*float64(shed)/float64(total)),
				percentile(lat, 0.50), percentile(lat, 0.99), wall)
		}
	}
	t.print()

	fmt.Println()
	fmt.Println("Reading: at 1x the gate admits everything (shed 0%) and matches the ungated")
	fmt.Println("corpus. At 16x the ungated corpus runs every pool at once — p99 grows with the")
	fmt.Println("oversubscription — while the gated corpus keeps completed-query latency near")
	fmt.Println("its 1x profile by shedding the excess before any worker starts.")
}
