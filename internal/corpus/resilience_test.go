package corpus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spanjoin/internal/resilience"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// TestWorkerPanicIsolated is the acceptance property of the panic
// isolation layer: a document whose evaluation panics fails its own query
// with *resilience.PanicError naming the document — while concurrent
// healthy queries over the same store run to completion, and the process
// survives.
func TestWorkerPanicIsolated(t *testing.T) {
	s := NewStore(4)
	var poisonID DocID
	for i := 0; i < 32; i++ {
		id := s.Add(fmt.Sprintf("doc-%d", i))
		if i == 13 {
			poisonID = id
		}
	}
	poisoned, _ := s.Get(poisonID)

	newPoisoned := func(func() bool) DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			if doc == poisoned {
				panic("poisoned document")
			}
			emit(span.Tuple{})
			return nil
		}
	}
	newHealthy := func(func() bool) DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			emit(span.Tuple{})
			return nil
		}
	}

	var wg sync.WaitGroup
	healthyErrs := make([]error, 4)
	healthyCounts := make([]int, 4)
	for i := range healthyErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.EvalFunc(context.Background(), span.NewVarList("x"), newHealthy, EvalOptions{})
			if err != nil {
				healthyErrs[i] = err
				return
			}
			for {
				if _, ok := res.Next(); !ok {
					break
				}
				healthyCounts[i]++
			}
			healthyErrs[i] = res.Err()
		}()
	}

	res, err := s.EvalFunc(context.Background(), span.NewVarList("x"), newPoisoned, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := res.Next(); !ok {
			break
		}
	}
	var pe *resilience.PanicError
	if err := res.Err(); !errors.As(err, &pe) {
		t.Fatalf("poisoned query Err = %v, want *resilience.PanicError", err)
	}
	if pe.Doc != uint64(poisonID) {
		t.Fatalf("PanicError.Doc = %d, want %d", pe.Doc, poisonID)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}

	wg.Wait()
	for i, err := range healthyErrs {
		if err != nil {
			t.Fatalf("concurrent healthy query %d failed: %v", i, err)
		}
		if healthyCounts[i] != s.Len() {
			t.Fatalf("healthy query %d got %d results, want %d", i, healthyCounts[i], s.Len())
		}
	}
}

// TestEvalConstructorPanicIsolated: a panicking evaluator constructor
// fails the call synchronously with a typed error instead of crashing.
func TestEvalConstructorPanicIsolated(t *testing.T) {
	s := NewStore(2)
	s.Add("doc")
	newEval := func(func() bool) DocEval { panic("constructor exploded") }
	_, err := s.EvalFunc(context.Background(), span.NewVarList("x"), newEval, EvalOptions{})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *resilience.PanicError", err)
	}
	if pe.Doc != resilience.NoDoc {
		t.Fatalf("constructor panic blamed doc %d, want NoDoc", pe.Doc)
	}
}

// TestCountPanicIsolated: the counting fan-out recovers a panicking
// counter into a typed error too.
func TestCountPanicIsolated(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 8; i++ {
		s.Add(fmt.Sprintf("doc-%d", i))
	}
	newEval := func(func() bool) DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			if doc == "doc-5" {
				panic("count blew up")
			}
			return nil
		}
	}
	_, err := s.CountFunc(context.Background(), newEval, EvalOptions{}, false)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *resilience.PanicError", err)
	}
}

// TestCachePanicIsolated: a panicking compile func surfaces as an error
// to every waiter of the singleflight, leaves the key uncached, and does
// not wedge later fills.
func TestCachePanicIsolated(t *testing.T) {
	c := NewCache(4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Get("k", func() (any, error) {
				time.Sleep(time.Millisecond)
				panic("compile exploded")
			})
		}()
	}
	wg.Wait()
	var sawPanic bool
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d got nil error from a panicking fill", i)
		}
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatal("no waiter saw the PanicError")
	}
	// The key was not poisoned: a later fill succeeds and caches.
	v, err := c.Get("k", func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("fill after panic: %v, %v", v, err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache resident = %d, want 1", c.Len())
	}
}

// TestEvalDeadline: an EvalOptions deadline surfaces as
// context.DeadlineExceeded on the stream, not as a plain cancellation.
func TestEvalDeadline(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 64; i++ {
		s.Add("aaaa")
	}
	a := rgx.MustCompilePattern(`(a)*x{a+}(a)*`)
	res, err := evalVSA(context.Background(), s, a, EvalOptions{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := res.Next(); !ok {
			break
		}
	}
	if err := res.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalBudget: running out of budget stops the query with the typed
// error and reports the work done.
func TestEvalBudget(t *testing.T) {
	s := NewStore(1)
	for i := 0; i < 8; i++ {
		s.Add("aaaaaaaaaaaaaaaa") // 16 bytes each
	}
	a := rgx.MustCompilePattern(`(a)*x{a+}(a)*`)
	res, err := evalVSA(context.Background(), s, a, EvalOptions{Workers: 1, Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := res.Next(); !ok {
			break
		}
		n++
	}
	if err := res.Err(); !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want ErrBudgetExceeded", err)
	}
	if res.Work() < 16 {
		t.Fatalf("Work = %d, want ≥ 16 (one document charged)", res.Work())
	}
	if res.Scanned() == 0 || res.Scanned() == 8 {
		t.Fatalf("Scanned = %d, want partial progress", res.Scanned())
	}
	_ = n // partial results are valid
}

// TestEvalLimit: the limit delivers exactly n results and ends the
// stream with a nil error.
func TestEvalLimit(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 16; i++ {
		s.Add("aaa") // `x{a+}` unanchored has several matches per doc
	}
	a := rgx.MustCompilePattern(`(a|b)*x{a+}(a|b)*`)
	for _, limit := range []uint64{1, 7, 32} {
		res, err := evalVSA(context.Background(), s, a, EvalOptions{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for {
			if _, ok := res.Next(); !ok {
				break
			}
			got++
		}
		if got != limit {
			t.Fatalf("limit %d delivered %d results", limit, got)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("limit %d: Err = %v, want nil (a met limit is exhaustion)", limit, err)
		}
		if res.Delivered() != limit {
			t.Fatalf("Delivered = %d, want %d", res.Delivered(), limit)
		}
	}
}

// TestGateShedsAndReleases: with capacity 1 and no queue, a second query
// sheds with ErrOverloaded while the first holds the slot, and admission
// recovers once the first stream closes.
func TestGateShedsAndReleases(t *testing.T) {
	s := NewStore(2)
	s.SetGate(resilience.NewGate(1, 0))
	for i := 0; i < 64; i++ {
		s.Add("aaaaaaaa")
	}
	a := rgx.MustCompilePattern(`(a)*x{a+}(a)*`)

	res, err := evalVSA(context.Background(), s, a, EvalOptions{Buffer: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Next(); !ok {
		t.Fatal("first query produced nothing")
	}
	// The first pool is alive (blocked producing into a full buffer): the
	// slot is held, so the second query sheds synchronously.
	if _, err := evalVSA(context.Background(), s, a, EvalOptions{}); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("second Eval err = %v, want ErrOverloaded", err)
	}
	if st := s.GateStats(); st.Rejected == 0 {
		t.Fatalf("GateStats.Rejected = 0 after a shed")
	}
	res.Close()
	// Slot released: admission works again.
	res2, err := evalVSA(context.Background(), s, a, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval after release: %v", err)
	}
	res2.Close()
}

// TestResultsCloseConcurrent hammers Close from many goroutines racing
// each other, Next, and exhaustion.
func TestResultsCloseConcurrent(t *testing.T) {
	a := rgx.MustCompilePattern(`(a)*x{a+}(a)*`)
	for trial := 0; trial < 8; trial++ {
		s := NewStore(4)
		for i := 0; i < 32; i++ {
			s.Add("aaaaaa")
		}
		res, err := evalVSA(context.Background(), s, a, EvalOptions{Buffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.Close()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := res.Next(); !ok {
					return
				}
			}
		}()
		wg.Wait()
		res.Close() // and after everything is down
		if err := res.Err(); err != nil {
			t.Fatalf("closed stream Err = %v, want nil", err)
		}
	}
}
