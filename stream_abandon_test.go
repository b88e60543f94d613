package spanjoin_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/internal/leakcheck"
)

// abandonCorpus builds a corpus big enough that a consumer can walk away
// mid-stream with workers still producing.
func abandonCorpus(t *testing.T) *spanjoin.Corpus {
	t.Helper()
	c := spanjoin.NewCorpus(spanjoin.WithShards(4), spanjoin.WithResultBuffer(2))
	for i := 0; i < 64; i++ {
		c.Add(fmt.Sprintf("padding %s mail %s tail", strings.Repeat("a", i%7), strings.Repeat("b", i%5)))
	}
	return c
}

// TestCorpusMatchesCloseThenErr is the satellite regression: a consumer
// that abandons a stream mid-way and Closes it must read a nil, stable
// Err — the engine's own shutdown (a context cancellation racing the
// close) must never surface as a spurious failure. Before the fix this
// was a scheduling accident: whether the closer goroutine recorded
// context.Canceled ahead of Close marking the stream closed decided what
// Err returned.
func TestCorpusMatchesCloseThenErr(t *testing.T) {
	c := abandonCorpus(t)
	leakcheck.Check(t, func() {
		for i := 0; i < 200; i++ {
			ms, err := c.Eval(context.Background(), spanjoin.Anchored(`.*x{mail}.*`))
			if err != nil {
				t.Fatal(err)
			}
			// Read a few rows (i varies how deep), then walk away.
			for j := 0; j < i%5; j++ {
				if _, ok := ms.Next(); !ok {
					break
				}
			}
			ms.Close()
			if err := ms.Err(); err != nil {
				t.Fatalf("iter %d: Err after Close = %v, want nil", i, err)
			}
			// Stable across repeated reads and repeated Closes.
			ms.Close()
			if err := ms.Err(); err != nil {
				t.Fatalf("iter %d: second Err after Close = %v, want nil", i, err)
			}
		}
	})
}

// TestCorpusMatchesCloseErrHammer races Close against concurrent Next
// and Err callers (run under -race in CI). Whatever the interleaving,
// Err must settle to nil once the stream is closed without a real
// failure, and no goroutine may leak.
func TestCorpusMatchesCloseErrHammer(t *testing.T) {
	c := abandonCorpus(t)
	leakcheck.Check(t, func() {
		for i := 0; i < 60; i++ {
			ms, err := c.Eval(context.Background(), spanjoin.Anchored(`.*x{mail}.*`))
			if err != nil {
				t.Fatal(err)
			}
			// Next is single-consumer; Close and Err are safe from any
			// goroutine concurrently with it — which is exactly the
			// abandonment interleaving this hammers.
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				for {
					if _, ok := ms.Next(); !ok {
						return
					}
				}
			}()
			go func() { defer wg.Done(); ms.Err(); ms.Close() }()
			go func() { defer wg.Done(); time.Sleep(time.Duration(i%3) * time.Microsecond); ms.Close() }()
			wg.Wait()
			if err := ms.Err(); err != nil {
				t.Fatalf("iter %d: settled Err = %v, want nil", i, err)
			}
		}
	})
}

// TestCorpusMatchesCloseKeepsRealErrors pins the other side of the
// contract: Close must not launder a genuine failure. A deadline that
// fired before the close still reads as DeadlineExceeded afterwards.
func TestCorpusMatchesCloseKeepsRealErrors(t *testing.T) {
	c := abandonCorpus(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	ms, err := c.Eval(ctx, spanjoin.Anchored(`.*x{mail}.*`), spanjoin.WithTimeout(time.Nanosecond))
	if err != nil {
		t.Skipf("evaluation failed synchronously: %v", err)
	}
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	errBefore := ms.Err()
	ms.Close()
	if errAfter := ms.Err(); errBefore != nil && errAfter == nil {
		t.Fatalf("Close erased a real failure: before %v, after nil", errBefore)
	}
}
