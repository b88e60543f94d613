package spanjoin_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/alloctest"
	"spanjoin/internal/leakcheck"
	"spanjoin/internal/resilience"
	"spanjoin/internal/vsa"
)

// resilienceCorpus builds a corpus whose documents each yield many
// matches for the test pattern, so undrained evaluations keep their
// worker pools alive (blocked producing) — the state admission control
// and leak tests need to be able to create on demand.
func resilienceCorpus(t *testing.T, opts ...spanjoin.CorpusOption) *spanjoin.Corpus {
	t.Helper()
	c := spanjoin.NewCorpus(opts...)
	for i := 0; i < 48; i++ {
		c.Add(strings.Repeat("ab", 12))
	}
	return c
}

const resiliencePattern = `x{(ab)+}`

// TestErrorTaxonomy pins the public failure modes: each limit violation
// surfaces as its distinct typed error, detectable with errors.Is /
// errors.As, at both the pattern path (a Search target) and the query
// path (an OfQuery target).
func TestErrorTaxonomy(t *testing.T) {
	q := spanjoin.NewQuery().Atom(`.*x{(ab)+}.*`).MustBuild()
	eval := map[string]func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error){
		"spanner": func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error) {
			return c.Eval(context.Background(), spanjoin.Search(resiliencePattern), opts...)
		},
		"query": func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error) {
			return c.Eval(context.Background(), spanjoin.OfQuery(q), opts...)
		},
	}
	for name, ev := range eval {
		t.Run(name+"/deadline", func(t *testing.T) {
			c := resilienceCorpus(t)
			ms, err := ev(c, spanjoin.WithTimeout(time.Nanosecond))
			if err != nil {
				// The deadline may fire before the pool even starts; that
				// synchronous form must carry the same typed error.
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
		t.Run(name+"/budget", func(t *testing.T) {
			c := resilienceCorpus(t)
			ms, err := ev(c, spanjoin.WithBudget(5))
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
			if err := ms.Err(); !errors.Is(err, spanjoin.ErrBudgetExceeded) {
				t.Fatalf("Err = %v, want ErrBudgetExceeded", err)
			}
			if st := ms.Stats(); st.Work == 0 {
				t.Fatal("Stats.Work = 0 after budgeted work")
			}
		})
		t.Run(name+"/limit", func(t *testing.T) {
			c := resilienceCorpus(t)
			ms, err := ev(c, spanjoin.WithLimit(3))
			if err != nil {
				t.Fatal(err)
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
			if n != 3 {
				t.Fatalf("delivered %d results, want 3", n)
			}
			if err := ms.Err(); err != nil {
				t.Fatalf("Err = %v, want nil — a met limit is normal exhaustion", err)
			}
			if st := ms.Stats(); st.Delivered != 3 {
				t.Fatalf("Stats.Delivered = %d, want 3", st.Delivered)
			}
		})
		t.Run(name+"/overloaded", func(t *testing.T) {
			c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
			ms, err := ev(c)
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			if _, ok := ms.Next(); !ok {
				t.Fatal("holder query produced nothing")
			}
			if _, err := ev(c); !errors.Is(err, spanjoin.ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if st := c.GateStats(); st.Rejected == 0 || st.Active != 1 {
				t.Fatalf("GateStats = %+v, want Active 1 and Rejected > 0", st)
			}
			// spanlint/closecheck: the undrained holder must not have faulted.
			if err := ms.Err(); err != nil {
				t.Fatalf("holder Err = %v, want nil", err)
			}
		})
	}
}

// TestOverloadedHostileQueryBuildsNothingQuadratic: a never-seen pattern
// with a 4,096-byte literal, shed by a saturated gate, costs only its
// compilation and the plan's linear functionality check. The letter table
// and the transition table, whose two class matrices are quadratic in the
// automaton's 4,109 states (about 4 MiB together), wait for a swept
// document, which a shed query never reaches.
func TestOverloadedHostileQueryBuildsNothingQuadratic(t *testing.T) {
	c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	holder, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, ok := holder.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}
	hostile := spanjoin.Search("x{" + strings.Repeat("a", 4096) + "}")
	tables := vsa.TableBuildCount()
	count := func() { _, err = c.Count(context.Background(), hostile) }
	if alloctest.RaceEnabled {
		count()
	} else if b := alloctest.Bytes(t, 1, count); b > 4<<20 {
		t.Fatalf("the shed query allocated %.1f MiB, want under 4 MiB", b/(1<<20))
	}
	if !errors.Is(err, spanjoin.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if n := vsa.TableBuildCount() - tables; n != 0 {
		t.Fatalf("the shed query built %d transition tables, want 0", n)
	}
	// spanlint/closecheck: the undrained holder must not have faulted.
	if err := holder.Err(); err != nil {
		t.Fatalf("holder Err = %v, want nil", err)
	}
}

// TestCountHonorsLimits: counts pass the same gate and deadline as
// streams.
func TestCountHonorsLimits(t *testing.T) {
	c := resilienceCorpus(t)
	_, err := c.Count(context.Background(), spanjoin.Search(resiliencePattern), spanjoin.WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("count with expired deadline: %v, want DeadlineExceeded", err)
	}

	g := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	ms, err := g.Eval(context.Background(), spanjoin.Search(resiliencePattern))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, ok := ms.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}
	if _, err := g.Count(context.Background(), spanjoin.Search(resiliencePattern)); !errors.Is(err, spanjoin.ErrOverloaded) {
		t.Fatalf("count under overload: %v, want ErrOverloaded", err)
	}
	// spanlint/closecheck: the undrained holder must not have faulted.
	if err := ms.Err(); err != nil {
		t.Fatalf("holder Err = %v, want nil", err)
	}

	// A count admitted on the only slot whose deadline then fires gives
	// the slot back: the gate is idle and the next count is admitted.
	one := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1))
	if _, err := one.Count(context.Background(), spanjoin.Search(resiliencePattern), spanjoin.WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("count with expired deadline: %v, want DeadlineExceeded", err)
	}
	if st := one.GateStats(); st.Active != 0 {
		t.Fatalf("GateStats.Active = %d after a timed-out count, want 0", st.Active)
	}
	if _, err := one.Count(context.Background(), spanjoin.Search(resiliencePattern)); err != nil {
		t.Fatalf("count after a timed-out count: %v", err)
	}
}

// TestPageBuildHonorsDeadline: with the count served from the count memo,
// a page's only document-length-dependent work is the window document's
// graph build. The page's deadline must interrupt that build and fail the
// page — not let it finish late, nor return the page short with a nil
// error. Uninterrupted, the build below takes about 200 ms on a 2-vCPU
// x86-64 host, two orders of magnitude past the deadline.
func TestPageBuildHonorsDeadline(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.Add(strings.Repeat("a", 512<<10) + "b")
	ctx := context.Background()
	// An untimed page fills the pattern's count memo.
	page, err := c.Page(ctx, spanjoin.Search("x{b}"), 0, 1)
	if err != nil || len(page.Matches) != 1 {
		t.Fatalf("untimed page: %v, %v", page, err)
	}
	t0 := time.Now()
	page, err = c.Page(ctx, spanjoin.Search("x{b}"), 0, 1, spanjoin.WithTimeout(2*time.Millisecond))
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("page past its deadline: %v, %v; want DeadlineExceeded", page, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("page failed after %v; the build must stop at the deadline", elapsed)
	}
}

// TestSampleBuildHonorsDeadline is TestPageBuildHonorsDeadline for
// Sample: with the count served from the count memo, the drawn document's
// ranked-view build is the draw's only document-length-dependent work,
// and the sample's deadline must interrupt it and fail the sample.
func TestSampleBuildHonorsDeadline(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.Add(strings.Repeat("a", 512<<10) + "b")
	ctx := context.Background()
	// An untimed count fills the pattern's count memo.
	if n, err := c.Count(ctx, spanjoin.Search("x{b}")); err != nil || n.String() != "1" {
		t.Fatalf("untimed count: %v, %v", n, err)
	}
	t0 := time.Now()
	ms, err := c.Sample(ctx, spanjoin.Search("x{b}"), rand.New(rand.NewSource(1)), 1, spanjoin.WithTimeout(2*time.Millisecond))
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sample past its deadline: %v, %v; want DeadlineExceeded", ms, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("sample failed after %v; the build must stop at the deadline", elapsed)
	}
}

// TestQueueAdmitsFIFO: with a one-deep queue, a second query waits for
// the slot instead of shedding, and a third sheds.
func TestQueueAdmitsFIFO(t *testing.T) {
	c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithMaxQueue(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}

	queuedDone := make(chan error, 1)
	go func() {
		q, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
		if err != nil {
			queuedDone <- err
			return
		}
		defer q.Close()
		if _, ok := q.Next(); !ok {
			queuedDone <- errors.New("queued query produced nothing")
			return
		}
		// spanlint/closecheck: report the queued stream's Err to the waiter.
		queuedDone <- q.Err()
	}()

	// Wait until the second query is actually parked in the wait queue.
	deadline := time.Now().Add(5 * time.Second)
	for c.GateStats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: a third query sheds.
	if _, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern)); !errors.Is(err, spanjoin.ErrOverloaded) {
		t.Fatalf("third query err = %v, want ErrOverloaded", err)
	}
	// spanlint/closecheck: the holder must not have faulted while parked.
	if err := ms.Err(); err != nil {
		t.Fatalf("holder Err = %v, want nil", err)
	}
	// Releasing the slot admits the queued query.
	ms.Close()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued query: %v", err)
	}
}

// TestCorpusMatchesCloseConcurrent hammers the public Close from many
// goroutines, racing Next and each other.
func TestCorpusMatchesCloseConcurrent(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		c := resilienceCorpus(t, spanjoin.WithResultBuffer(1))
		ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms.Close()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := ms.Next(); !ok {
					return
				}
			}
		}()
		wg.Wait()
		ms.Close()
		if err := ms.Err(); err != nil {
			t.Fatalf("closed stream Err = %v, want nil", err)
		}
	}
}

// drainAbandoned consumes the stream to exhaustion and asserts its
// terminal Err, deliberately without Close: each TestNoGoroutineLeaks
// path must reap the worker pool through its own termination mode
// alone. Receiving the stream as a parameter takes over its lifecycle
// obligation (spanlint/closecheck's escape rule), which this helper
// intentionally leaves unfulfilled.
func drainAbandoned(t *testing.T, ms *spanjoin.CorpusMatches, want error) {
	t.Helper()
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	err := ms.Err()
	switch {
	case want == nil && err != nil:
		t.Fatalf("Err = %v, want nil", err)
	case want != nil && !errors.Is(err, want):
		t.Fatalf("Err = %v, want %v", err, want)
	}
}

// abandonStream reads one result and drops the stream: ownership (and
// the close obligation) transfers here and is never fulfilled, so only
// the GC cleanup attached to the public wrapper can reap the pool —
// exactly the path the abandoned leak subtest exercises.
func abandonStream(ms *spanjoin.CorpusMatches) {
	ms.Next()
}

// TestNoGoroutineLeaks drives every lifecycle path of a corpus
// evaluation and asserts the worker pool (including the shard dealer) is
// gone afterwards.
func TestNoGoroutineLeaks(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t)
			ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
			if err != nil {
				t.Fatal(err)
			}
			drainAbandoned(t, ms, nil)
		})
	})
	t.Run("closed-early", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithResultBuffer(1))
			ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
			if err != nil {
				t.Fatal(err)
			}
			ms.Next()
			ms.Close()
			// spanlint/closecheck: a closed stream reports a clean Err.
			if err := ms.Err(); err != nil {
				t.Fatalf("Err after early Close = %v, want nil", err)
			}
		})
	})
	t.Run("cancelled", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithResultBuffer(1))
			ctx, cancel := context.WithCancel(context.Background())
			ms, err := c.Eval(ctx, spanjoin.Search(resiliencePattern))
			if err != nil {
				t.Fatal(err)
			}
			ms.Next()
			cancel()
			drainAbandoned(t, ms, context.Canceled)
		})
	})
	t.Run("deadline", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t)
			ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern), spanjoin.WithTimeout(time.Nanosecond))
			if err != nil {
				return
			}
			drainAbandoned(t, ms, context.DeadlineExceeded)
		})
	})
	t.Run("shed", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
			ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
			if err != nil {
				t.Fatal(err)
			}
			ms.Next()
			if _, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern)); !errors.Is(err, spanjoin.ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			// spanlint/closecheck: check the holder before releasing it.
			if err := ms.Err(); err != nil {
				t.Fatalf("holder Err = %v, want nil", err)
			}
			ms.Close()
		})
	})
	// Counts, pages and batches run on the same shard executor as streams
	// but return synchronously: their pools must be gone once the call
	// returns, whether it ran to the end, was cancelled, or timed out.
	const pattern = `.*` + resiliencePattern + `.*`
	sp := spanjoin.MustCompile(pattern)
	docs := make([]string, 48)
	for i := range docs {
		docs[i] = strings.Repeat("ab", 12)
	}
	ops := []struct {
		name string
		run  func(ctx context.Context, c *spanjoin.Corpus, timeout time.Duration) error
	}{
		{"count", func(ctx context.Context, c *spanjoin.Corpus, timeout time.Duration) error {
			_, err := c.Count(ctx, spanjoin.Anchored(pattern), timeoutOpts(timeout)...)
			return err
		}},
		{"page", func(ctx context.Context, c *spanjoin.Corpus, timeout time.Duration) error {
			_, err := c.Page(ctx, spanjoin.Anchored(pattern), 5, 10, timeoutOpts(timeout)...)
			return err
		}},
		{"batch", func(ctx context.Context, _ *spanjoin.Corpus, timeout time.Duration) error {
			_, err := sp.EvalAll(ctx, docs, timeoutOpts(timeout)...)
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name+"-drained", func(t *testing.T) {
			leakcheck.Check(t, func() {
				if err := op.run(context.Background(), resilienceCorpus(t), 0); err != nil {
					t.Fatal(err)
				}
			})
		})
		t.Run(op.name+"-cancelled", func(t *testing.T) {
			leakcheck.Check(t, func() {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := op.run(ctx, resilienceCorpus(t), 0); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			})
		})
		t.Run(op.name+"-deadline", func(t *testing.T) {
			leakcheck.Check(t, func() {
				if err := op.run(context.Background(), resilienceCorpus(t), time.Nanosecond); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			})
		})
	}
	t.Run("abandoned", func(t *testing.T) {
		// The hard case: the caller reads a bit and drops the stream
		// without Close. The dealer and workers are parked on a full
		// buffer; only the GC cleanup attached to the public wrapper can
		// reap them. leakcheck's retry loop runs runtime.GC, which fires
		// the cleanup once the wrapper is unreachable.
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithResultBuffer(1))
			func() {
				ms, err := c.Eval(context.Background(), spanjoin.Search(resiliencePattern))
				if err != nil {
					t.Fatal(err)
				}
				abandonStream(ms)
			}()
		})
	})
}

// timeoutOpts is WithTimeout(d) as an option list, empty for d = 0.
func timeoutOpts(d time.Duration) []spanjoin.Option {
	if d == 0 {
		return nil
	}
	return []spanjoin.Option{spanjoin.WithTimeout(d)}
}

// TestIterateCtxCancellation: a stream polls the context Iterate was
// given and reports its cancellation via Matches.Err, while a stream whose
// context stays live reports nil after exhaustion.
func TestIterateCtxCancellation(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{(ab)+}.*`)
	doc := strings.Repeat("ab", 64)

	ms, err := sp.Iterate(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	if err := ms.Err(); err != nil {
		t.Fatalf("live Iterate Err = %v, want nil", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ms, err = sp.Iterate(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.Next(); !ok {
		t.Fatal("no first match")
	}
	cancel()
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	if err := ms.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}

	// An already-dead context ends every stream at its first Next, and a
	// Skip on it moves nothing.
	q := spanjoin.NewQuery().Atom(`.*x{(ab)+}.*`).MustBuild()
	for name, open := range map[string]func() (*spanjoin.Matches, error){
		"spanner": func() (*spanjoin.Matches, error) { return sp.Iterate(ctx, doc) },
		"query":   func() (*spanjoin.Matches, error) { return q.Iterate(ctx, doc) },
	} {
		ms, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if n := ms.Skip(100); n != 0 {
			t.Fatalf("%s: Skip on a cancelled stream = %d, want 0", name, n)
		}
		if _, ok := ms.Next(); ok || !errors.Is(ms.Err(), context.Canceled) {
			t.Fatalf("%s: Next on a cancelled stream: ok=%v Err=%v, want false, context.Canceled", name, ok, ms.Err())
		}
	}
}

// TestPerDocumentLimits: every per-document method that returns a
// finished result stops at WithLimit (a met limit is no error) and reports
// an expired WithTimeout as context.DeadlineExceeded, never as a short or
// empty result — on every plan a query can take.
func TestPerDocumentLimits(t *testing.T) {
	doc := strings.Repeat("a", 12) // 78 matches per atom, 6,084 per query
	q := spanjoin.NewQuery().Atom(`.*x{a+}.*`).Atom(`.*y{a+}.*`).MustBuild()
	eq := spanjoin.NewQuery().Atom(`.*x{a+}.*`).Atom(`.*y{a+}.*`).Equal("x", "y").MustBuild()
	u, err := spanjoin.NewUnion(q, spanjoin.NewQuery().Atom(`.*x{a}.*`).Atom(`.*y{a}.*`).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	canonical := spanjoin.WithStrategy(spanjoin.StrategyCanonical)
	automata := spanjoin.WithStrategy(spanjoin.StrategyAutomata)
	expired := spanjoin.WithTimeout(time.Nanosecond)
	limit := spanjoin.WithLimit(10)
	evaluate := func(eval func(string, ...spanjoin.Option) ([]spanjoin.Match, error), fixed ...spanjoin.Option) func(...spanjoin.Option) (uint64, error) {
		return func(opts ...spanjoin.Option) (uint64, error) {
			ms, err := eval(doc, append(opts, fixed...)...)
			return uint64(len(ms)), err
		}
	}
	count := func(q *spanjoin.Query, fixed ...spanjoin.Option) func(...spanjoin.Option) (uint64, error) {
		return func(opts ...spanjoin.Option) (uint64, error) {
			c, err := q.Count(doc, append(opts, fixed...)...)
			n, _ := c.Uint64()
			return n, err
		}
	}
	for name, run := range map[string]func(...spanjoin.Option) (uint64, error){
		"Query.Evaluate/automata":  evaluate(q.Evaluate, automata),
		"Query.Evaluate/canonical": evaluate(q.Evaluate, canonical),
		"UnionQuery.Evaluate":      evaluate(u.Evaluate),
		"Query.Count/plan":         count(q),
		"Query.Count/drain":        count(q, canonical),
		"Query.Count/equality":     count(eq),
	} {
		if n, err := run(limit); err != nil || n != 10 {
			t.Errorf("%s with WithLimit(10) = %d, %v; want 10, nil", name, n, err)
		}
		if n, err := run(expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s with an expired WithTimeout = %d, %v; want context.DeadlineExceeded", name, n, err)
		}
	}
	if ok, err := q.Exists(doc, limit); !ok || err != nil {
		t.Errorf("Exists = %v, %v; want true, nil", ok, err)
	}
	if ok, err := q.Exists(doc, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Exists with an expired WithTimeout = %v, %v; want context.DeadlineExceeded", ok, err)
	}
}

// TestPanicErrorExposed: the re-exported alias is the engine's own type,
// so a PanicError produced anywhere inside surfaces to errors.As at the
// API boundary, through wrapping, with its message naming the document.
func TestPanicErrorExposed(t *testing.T) {
	inner := resilience.NewPanicError(7, "boom")
	wrapped := fmt.Errorf("evaluating: %w", inner)
	var pe *spanjoin.PanicError
	if !errors.As(wrapped, &pe) {
		t.Fatal("errors.As failed through a wrap")
	}
	if pe.Doc != 7 || !strings.Contains(pe.Error(), "doc 7") {
		t.Fatalf("PanicError = %v", pe)
	}
	// An error panic value stays reachable through Unwrap.
	cause := errors.New("root cause")
	if !errors.Is(resilience.NewPanicError(resilience.NoDoc, cause), cause) {
		t.Fatal("errors.Is lost the panic's error value")
	}
}
