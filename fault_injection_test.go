//go:build failpoints

package spanjoin_test

// Fault-injection suite: runs under `go test -tags failpoints`, arming
// the resilience failpoints compiled into the corpus pipeline and
// asserting that every injected fault — panic, delay, cancellation, at
// every stage — degrades into its typed error at the public API, without
// leaking the worker pool and without disturbing concurrent queries.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/leakcheck"
	"spanjoin/internal/resilience"
)

// TestInjectedWorkerPanic poisons one document at the worker stage and
// checks the acceptance property end to end at the public API: the query
// that touches it gets *PanicError (naming the document), concurrent
// queries that skip it by prefilter finish cleanly, the process lives.
func TestInjectedWorkerPanic(t *testing.T) {
	c := spanjoin.NewCorpus()
	for i := 0; i < 24; i++ {
		c.Add(strings.Repeat("ab", 8))
	}
	poisonID := c.Add("zzzz")
	poison, _ := c.Doc(poisonID)

	disarm := resilience.Enable(resilience.FailWorkerDoc, resilience.PanicOnArg(poison, "injected"))
	defer disarm()

	// Healthy queries require the literal "ab", so the prefilter skips the
	// poisoned document before the failpoint stage.
	var wg sync.WaitGroup
	healthyErrs := make([]error, 3)
	for i := range healthyErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := c.Eval(context.Background(), spanjoin.Search(`x{(ab)+}`))
			if err != nil {
				healthyErrs[i] = err
				return
			}
			// spanlint/closecheck: release the stream's pool slot.
			defer ms.Close()
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
			}
			healthyErrs[i] = ms.Err()
		}()
	}

	ms, err := c.Eval(context.Background(), spanjoin.Search(`x{z+}`))
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ms.Close()
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	var pe *spanjoin.PanicError
	if err := ms.Err(); !errors.As(err, &pe) {
		t.Fatalf("poisoned query Err = %v, want *PanicError", err)
	}
	if pe.Doc != uint64(poisonID) {
		t.Fatalf("PanicError.Doc = %d, want %d", pe.Doc, poisonID)
	}

	wg.Wait()
	for i, err := range healthyErrs {
		if err != nil {
			t.Fatalf("concurrent healthy query %d: %v", i, err)
		}
	}
}

// TestInjectedCacheFillPanic: a panic inside the compiled-query cache
// fill surfaces as a synchronous typed error, releases singleflight
// waiters, and does not poison the key.
func TestInjectedCacheFillPanic(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.Add("abab")
	disarm := resilience.Enable(resilience.FailCacheFill, resilience.PanicAction("compile exploded"))
	_, err := c.Eval(context.Background(), spanjoin.Search(`x{(ab)+}`))
	var pe *spanjoin.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	disarm()
	ms, err := c.Eval(context.Background(), spanjoin.Search(`x{(ab)+}`))
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	ms.Close()
	// spanlint/closecheck: the recovered key must not carry a stale fault.
	if err := ms.Err(); err != nil {
		t.Fatalf("after disarm Err = %v, want nil", err)
	}
}

// TestInjectedPlanPanic: a panic during snapshot planning (the index
// lookup stage) fails the call synchronously via the store-boundary
// recovery, not the process.
func TestInjectedPlanPanic(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithIndex())
	c.Add("abab")
	sp := spanjoin.MustCompile(`.*x{(ab)+}.*`)
	disarm := resilience.Enable(resilience.FailPlanCandidates, resilience.PanicAction("index exploded"))
	defer disarm()
	_, err := c.Eval(context.Background(), spanjoin.Of(sp))
	var pe *spanjoin.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

// TestInjectedCountPanic: the count pipeline converts an injected
// per-document panic into the same typed error.
func TestInjectedCountPanic(t *testing.T) {
	c := spanjoin.NewCorpus()
	for i := 0; i < 8; i++ {
		c.Add("abab")
	}
	c.Add("zz")
	disarm := resilience.Enable(resilience.FailCountDoc, resilience.PanicOnArg("zz", "injected"))
	defer disarm()
	_, err := c.Count(context.Background(), spanjoin.Search(`x{(ab|z)+}`))
	var pe *spanjoin.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

// TestInjectedDealerDelay: a slow dealer plus a short deadline — the
// deadline must fire, type correctly, and leave no goroutines behind.
func TestInjectedDealerDelay(t *testing.T) {
	disarm := resilience.Enable(resilience.FailDealer, resilience.SleepAction(30*time.Millisecond))
	defer disarm()
	leakcheck.Check(t, func() {
		c := spanjoin.NewCorpus(spanjoin.WithShards(4))
		for i := 0; i < 32; i++ {
			c.Add(strings.Repeat("ab", 8))
		}
		ms, err := c.Eval(context.Background(), spanjoin.Search(`x{(ab)+}`), spanjoin.WithTimeout(5*time.Millisecond))
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			return
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		for {
			if _, ok := ms.Next(); !ok {
				break
			}
		}
		if err := ms.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// TestInjectedCancellation: a failpoint that cancels the query's own
// context mid-flight surfaces as context.Canceled, cleanly.
func TestInjectedCancellation(t *testing.T) {
	c := spanjoin.NewCorpus()
	for i := 0; i < 32; i++ {
		c.Add(strings.Repeat("ab", 8))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := resilience.Enable(resilience.FailWorkerDoc, func(any) { cancel() })
	defer disarm()
	leakcheck.Check(t, func() {
		ms, err := c.Eval(ctx, spanjoin.Search(`x{(ab)+}`))
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", err)
			}
			return
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		for {
			if _, ok := ms.Next(); !ok {
				break
			}
		}
		if err := ms.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", err)
		}
	})
}

// TestInjectedDealerPanic: a panic in the dealer goroutine fails the
// query with *PanicError (NoDoc — not attributable to one document) and
// shuts the pool down.
func TestInjectedDealerPanic(t *testing.T) {
	disarm := resilience.Enable(resilience.FailDealer, resilience.PanicAction("dealer exploded"))
	defer disarm()
	leakcheck.Check(t, func() {
		c := spanjoin.NewCorpus(spanjoin.WithShards(4))
		for i := 0; i < 16; i++ {
			c.Add(strings.Repeat("ab", 8))
		}
		ms, err := c.Eval(context.Background(), spanjoin.Search(`x{(ab)+}`))
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		for {
			if _, ok := ms.Next(); !ok {
				break
			}
		}
		var pe *spanjoin.PanicError
		if err := ms.Err(); !errors.As(err, &pe) {
			t.Fatalf("Err = %v, want *PanicError", err)
		}
		if pe.Doc != resilience.NoDoc {
			t.Fatalf("dealer panic blamed doc %d, want NoDoc", pe.Doc)
		}
	})
}

// TestInjectedCountDeadlineKeepsMemo: a count whose WithTimeout fires
// mid-sweep fails with DeadlineExceeded and publishes nothing to the
// pattern's count memo, so the next count still equals a fresh corpus's.
func TestInjectedCountDeadlineKeepsMemo(t *testing.T) {
	const pattern = `.*x{(ab)+}.*`
	ctx := context.Background()
	var docs []string
	for i := 0; i < 32; i++ {
		docs = append(docs, strings.Repeat("ab", i%5)+" zz")
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(4), spanjoin.WithWorkers(2))
	c.AddAll(docs[:16]...)
	// The memo holds the first half, so the failed sweep below would
	// extend a real prefix if it published.
	if _, err := c.Count(ctx, spanjoin.Anchored(pattern)); err != nil {
		t.Fatal(err)
	}
	c.AddAll(docs[16:]...)

	// 16 documents at 5ms each over two workers: ~40ms of sweep against
	// a 12ms deadline.
	disarm := resilience.Enable(resilience.FailCountDoc, resilience.SleepAction(5*time.Millisecond))
	_, err := c.Count(ctx, spanjoin.Anchored(pattern), spanjoin.WithTimeout(12*time.Millisecond))
	disarm()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	fresh := spanjoin.NewCorpus(spanjoin.WithShards(4))
	fresh.AddAll(docs...)
	want, err := fresh.Count(ctx, spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Count(ctx, spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("count after the failed sweep = %v, fresh corpus %v", got, want)
	}
}

// TestInjectedBatchWorkerPanic: a panic while EvalAll evaluates
// one document fails the batch with *PanicError naming that document's
// index in docs — the process survives and the pool is gone.
func TestInjectedBatchWorkerPanic(t *testing.T) {
	const poison = 11
	docs := make([]string, 16)
	for i := range docs {
		docs[i] = strings.Repeat("ab", 8)
	}
	docs[poison] = "ab zz ab" // passes the spanner's "ab" prefilter
	disarm := resilience.Enable(resilience.FailWorkerDoc, resilience.PanicOnArg(docs[poison], "injected"))
	defer disarm()
	sp := spanjoin.MustCompile(`.*x{(ab)+}.*`)
	leakcheck.Check(t, func() {
		_, err := sp.EvalAll(context.Background(), docs)
		var pe *spanjoin.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Doc != poison {
			t.Fatalf("PanicError.Doc = %d, want %d", pe.Doc, poison)
		}
	})
}

// TestInjectedCountPanicReleasesGate: a count whose worker panics gives
// its admission slot back, so the next count on a one-slot corpus is
// admitted.
func TestInjectedCountPanicReleasesGate(t *testing.T) {
	const pattern = `x{(ab|z)+}`
	ctx := context.Background()
	c := spanjoin.NewCorpus(spanjoin.WithMaxConcurrent(1))
	for i := 0; i < 8; i++ {
		c.Add("abab")
	}
	c.Add("zz")
	disarm := resilience.Enable(resilience.FailCountDoc, resilience.PanicOnArg("zz", "injected"))
	_, err := c.Count(ctx, spanjoin.Search(pattern))
	disarm()
	var pe *spanjoin.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if st := c.GateStats(); st.Active != 0 {
		t.Fatalf("GateStats.Active = %d after a panicked count, want 0", st.Active)
	}
	if _, err := c.Count(ctx, spanjoin.Search(pattern)); err != nil {
		t.Fatalf("count after a panicked count: %v", err)
	}
}
