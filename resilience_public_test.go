package spanjoin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/leakcheck"
	"spanjoin/internal/resilience"
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
// errors.As, at both the pattern path (EvalSearch) and the query path
// (EvalQuery).
func TestErrorTaxonomy(t *testing.T) {
	q := spanjoin.NewQuery().Atom(`.*x{(ab)+}.*`).MustBuild()
	eval := map[string]func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error){
		"spanner": func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error) {
			return c.EvalSearch(context.Background(), resiliencePattern, opts...)
		},
		"query": func(c *spanjoin.Corpus, opts ...spanjoin.Option) (*spanjoin.CorpusMatches, error) {
			return c.EvalQuery(context.Background(), q, opts...)
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

// TestCountHonorsLimits: counts pass the same gate and deadline as
// streams.
func TestCountHonorsLimits(t *testing.T) {
	c := resilienceCorpus(t)
	_, err := c.CountSearch(context.Background(), resiliencePattern, spanjoin.WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("count with expired deadline: %v, want DeadlineExceeded", err)
	}

	g := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	ms, err := g.EvalSearch(context.Background(), resiliencePattern)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, ok := ms.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}
	if _, err := g.CountSearch(context.Background(), resiliencePattern); !errors.Is(err, spanjoin.ErrOverloaded) {
		t.Fatalf("count under overload: %v, want ErrOverloaded", err)
	}
	// spanlint/closecheck: the undrained holder must not have faulted.
	if err := ms.Err(); err != nil {
		t.Fatalf("holder Err = %v, want nil", err)
	}

	// A count admitted on the only slot whose deadline then fires gives
	// the slot back: the gate is idle and the next count is admitted.
	one := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1))
	if _, err := one.CountSearch(context.Background(), resiliencePattern, spanjoin.WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("count with expired deadline: %v, want DeadlineExceeded", err)
	}
	if st := one.GateStats(); st.Active != 0 {
		t.Fatalf("GateStats.Active = %d after a timed-out count, want 0", st.Active)
	}
	if _, err := one.CountSearch(context.Background(), resiliencePattern); err != nil {
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
	page, err := c.EvalSearchPage(ctx, "x{b}", 0, 1)
	if err != nil || len(page.Matches) != 1 {
		t.Fatalf("untimed page: %v, %v", page, err)
	}
	t0 := time.Now()
	page, err = c.EvalSearchPage(ctx, "x{b}", 0, 1, spanjoin.WithTimeout(2*time.Millisecond))
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("page past its deadline: %v, %v; want DeadlineExceeded", page, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("page failed after %v; the build must stop at the deadline", elapsed)
	}
}

// TestQueueAdmitsFIFO: with a one-deep queue, a second query waits for
// the slot instead of shedding, and a third sheds.
func TestQueueAdmitsFIFO(t *testing.T) {
	c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithMaxQueue(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	ms, err := c.EvalSearch(context.Background(), resiliencePattern)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}

	queuedDone := make(chan error, 1)
	go func() {
		q, err := c.EvalSearch(context.Background(), resiliencePattern)
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
	if _, err := c.EvalSearch(context.Background(), resiliencePattern); !errors.Is(err, spanjoin.ErrOverloaded) {
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
		ms, err := c.EvalSearch(context.Background(), resiliencePattern)
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
			ms, err := c.EvalSearch(context.Background(), resiliencePattern)
			if err != nil {
				t.Fatal(err)
			}
			drainAbandoned(t, ms, nil)
		})
	})
	t.Run("closed-early", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithResultBuffer(1))
			ms, err := c.EvalSearch(context.Background(), resiliencePattern)
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
			ms, err := c.EvalSearch(ctx, resiliencePattern)
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
			ms, err := c.EvalSearch(context.Background(), resiliencePattern, spanjoin.WithTimeout(time.Nanosecond))
			if err != nil {
				return
			}
			drainAbandoned(t, ms, context.DeadlineExceeded)
		})
	})
	t.Run("shed", func(t *testing.T) {
		leakcheck.Check(t, func() {
			c := resilienceCorpus(t, spanjoin.WithMaxConcurrent(1), spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
			ms, err := c.EvalSearch(context.Background(), resiliencePattern)
			if err != nil {
				t.Fatal(err)
			}
			ms.Next()
			if _, err := c.EvalSearch(context.Background(), resiliencePattern); !errors.Is(err, spanjoin.ErrOverloaded) {
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
			_, err := c.Count(ctx, pattern, timeoutOpts(timeout)...)
			return err
		}},
		{"page", func(ctx context.Context, c *spanjoin.Corpus, timeout time.Duration) error {
			_, err := c.EvalPage(ctx, pattern, 5, 10, timeoutOpts(timeout)...)
			return err
		}},
		{"batch", func(ctx context.Context, _ *spanjoin.Corpus, timeout time.Duration) error {
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			_, err := sp.EvalAllParallelCtx(ctx, docs, 0)
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
				ms, err := c.EvalSearch(context.Background(), resiliencePattern)
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

// TestIterateCtxCancellation: single-document iteration with a context
// stops on cancellation and reports it via Matches.Err, while plain
// Iterate reports nil.
func TestIterateCtxCancellation(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{(ab)+}.*`)
	doc := strings.Repeat("ab", 64)

	ms, err := sp.Iterate(doc)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	if err := ms.Err(); err != nil {
		t.Fatalf("plain Iterate Err = %v, want nil", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ms, err = sp.IterateCtx(ctx, doc)
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

	// An already-dead context fails fast.
	if _, err := sp.IterateCtx(ctx, doc); !errors.Is(err, context.Canceled) {
		t.Fatalf("IterateCtx on cancelled ctx = %v, want context.Canceled", err)
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
