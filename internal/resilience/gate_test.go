package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGateAdmitsUpToCapacity: capacity units admit immediately, the next
// caller queues, and past the queue bound callers shed with
// ErrOverloaded without blocking.
func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := NewGate(2, 1)
	ctx := context.Background()
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Third caller queues; it must be granted after a release.
	granted := make(chan error, 1)
	go func() { granted <- g.Acquire(ctx, 1) }()
	waitForQueued(t, g, 1)

	// Fourth caller finds the queue full: immediate shed.
	start := time.Now()
	if err := g.Acquire(ctx, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full Acquire = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed path blocked for %v", elapsed)
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}

	g.Release(1)
	if err := <-granted; err != nil {
		t.Fatalf("queued Acquire = %v, want grant after Release", err)
	}
	g.Release(1)
	g.Release(1)
	if st := g.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("drained gate stats = %+v, want idle", st)
	}
}

// TestGateAcquireRespectsContext: a queued waiter whose context ends
// leaves the queue with the context's error, and does not block later
// grants.
func TestGateAcquireRespectsContext(t *testing.T) {
	g := NewGate(1, 2)
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire under expired ctx = %v, want DeadlineExceeded", err)
	}
	g.Release(1)
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("Acquire after abandoned waiter = %v", err)
	}
	g.Release(1)
}

// TestGateOversizedRequestClamps: a request heavier than the whole gate
// is clamped to capacity instead of deadlocking forever.
func TestGateOversizedRequestClamps(t *testing.T) {
	g := NewGate(4, 0)
	if err := g.Acquire(context.Background(), 64); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Active != 4 {
		t.Fatalf("Active = %d, want clamped 4", st.Active)
	}
	g.Release(64)
	if st := g.Stats(); st.Active != 0 {
		t.Fatalf("Active after release = %d, want 0", st.Active)
	}
}

// TestGateConcurrentChurn hammers Acquire/Release from many goroutines
// and asserts the invariant Active ≤ capacity throughout (via the final
// drained state and absence of Release panics).
func TestGateConcurrentChurn(t *testing.T) {
	g := NewGate(4, 8)
	var wg sync.WaitGroup
	var admitted, shed int
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := g.Acquire(context.Background(), 1)
			mu.Lock()
			if err != nil {
				shed++
				mu.Unlock()
				return
			}
			admitted++
			mu.Unlock()
			time.Sleep(time.Millisecond)
			g.Release(1)
		}()
	}
	wg.Wait()
	if admitted+shed != 64 {
		t.Fatalf("admitted %d + shed %d != 64", admitted, shed)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if st := g.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("final stats = %+v, want drained", st)
	}
}

func waitForQueued(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued: %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
