package enum

import (
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/rgx"
)

// TestInterruptAbandonsBuild: a firing interrupt leaves the enumerator
// empty for the current document, and a later Reset with the interrupt
// cleared recovers full results — the enumerator is not poisoned.
func TestInterruptAbandonsBuild(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{z+}.*")
	// Long enough to hit a poll, sparse enough to enumerate instantly.
	doc := strings.Repeat("a", interruptStride*3) + "zz"
	e, err := Prepare(a, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := len(e.All())
	if want == 0 {
		t.Fatal("workload produced no tuples")
	}

	e.SetInterrupt(func() bool { return true })
	e.Reset(doc)
	if !e.Empty() {
		t.Fatal("interrupted build must come up empty")
	}
	if _, ok := e.Next(); ok {
		t.Fatal("interrupted enumerator yielded a tuple")
	}

	e.SetInterrupt(nil)
	e.Reset(doc)
	if got := len(e.All()); got != want {
		t.Fatalf("after clearing the interrupt: %d tuples, want %d", got, want)
	}
}

// TestInterruptAbandonsCount: an interrupted count returns 0 whichever
// poll of its one pass fires, and the next count on the same enumerator —
// and the same DFA — is exact.
func TestInterruptAbandonsCount(t *testing.T) {
	p, err := NewPlan(rgx.MustCompilePattern(".*x{z+}.*"))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Repeat("a", interruptStride*3) + "zz"
	e := p.NewEnumerator()
	want := e.CountDoc(doc)
	if want.IsZero() {
		t.Fatal("workload produced no tuples")
	}
	// The forward pass polls 3 times on this document; firing at poll k
	// abandons it at each of them.
	polls := 0
	e.SetInterrupt(func() bool { polls++; return false })
	e.CountDoc(doc)
	if polls != 3 {
		t.Fatalf("an unfired interrupt was polled %d times, want 3", polls)
	}
	for k := 1; k <= 3; k++ {
		polls := 0
		e.SetInterrupt(func() bool { polls++; return polls == k })
		if got := e.CountDoc(doc); !got.IsZero() {
			t.Fatalf("interrupt at poll %d: count %v, want 0", k, got)
		}
		e.SetInterrupt(nil)
		if got := e.CountDoc(doc); got.String() != want.String() {
			t.Fatalf("after an interrupt at poll %d: count %v, want %v", k, got, want)
		}
	}
}

// TestInterruptUnfiredIsInvisible: an installed interrupt that never
// fires must not change results.
func TestInterruptUnfiredIsInvisible(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{ab+}.*")
	doc := strings.Repeat("c", interruptStride) + randDoc(rand.New(rand.NewSource(9)), 64)
	e, err := Prepare(a, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := e.All()
	polls := 0
	e.SetInterrupt(func() bool { polls++; return false })
	e.Reset(doc)
	if got := e.All(); !tuplesEqual(got, want) {
		t.Fatal("interrupted-but-unfired results differ")
	}
	if polls == 0 {
		t.Fatalf("interrupt was never polled on a %d-byte doc", len(doc))
	}
}

// TestInterruptAllocsSteadyState: the budget/deadline hook must not cost
// the build its zero-allocation steady state — the gate the corpus fast
// path depends on (EvalOptions budgets enabled but unhit).
func TestInterruptAllocsSteadyState(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*")
	s := randDoc(rand.New(rand.NewSource(5)), 64)
	e, err := Prepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	e.SetInterrupt(func() bool { return false })
	drain := func() {
		for {
			if _, ok := e.Next(); !ok {
				return
			}
		}
	}
	for i := 0; i < 3; i++ {
		e.Reset(s)
		drain()
	}
	// This assertion gates the whole Reset+drain path, entry dispatch and
	// tuple cursor included.
	//
	//spanjoin:allocgate spanjoin/internal/enum.(*Enumerator).build spanjoin/internal/enum.(*Enumerator).Next
	avg := alloctest.Run(t, 20, func() {
		e.Reset(s)
		drain()
	})
	e.Reset(s)
	tuples := float64(len(e.All()))
	if avg > tuples+4 {
		t.Fatalf("Reset+drain with an armed interrupt allocates %.1f per document for %v tuples; want ≈ tuple count", avg, tuples)
	}
}
