package resilience

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Gate is a weighted-semaphore admission controller with a bounded wait
// queue. Capacity units are held for the lifetime of admitted work;
// callers past capacity wait in FIFO order up to the queue bound, and
// everyone beyond that is rejected immediately with ErrOverloaded — load
// sheds instead of accumulating goroutines.
//
// The zero bound conventions follow the corpus options: capacity ≤ 0
// means "ungated" (callers should simply not construct a Gate), queue < 0
// means no waiting at all (admit or reject, never block).
type Gate struct {
	capacity int64
	queueMax int

	rejected atomic.Uint64

	mu      sync.Mutex
	cur     int64
	waiters list.List // of *gateWaiter, FIFO
}

type gateWaiter struct {
	n     int64
	ready chan struct{} // closed when the waiter is granted its units
}

// NewGate creates a gate admitting at most capacity units of concurrent
// work, with at most queue callers waiting behind them; capacity < 1 is
// clamped to 1, queue < 0 to 0.
func NewGate(capacity int64, queue int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Gate{capacity: capacity, queueMax: queue}
}

// Acquire admits n units of work, waiting in the bounded queue when the
// gate is saturated. It returns nil on admission, ErrOverloaded when the
// queue is already full (immediately — the shed path never blocks), or
// ctx's error when the context ends while queued. n is clamped to the
// gate's capacity so a single oversized request cannot deadlock.
func (g *Gate) Acquire(ctx context.Context, n int64) error {
	if n < 1 {
		n = 1
	}
	if n > g.capacity {
		n = g.capacity
	}
	g.mu.Lock()
	if g.cur+n <= g.capacity && g.waiters.Len() == 0 {
		g.cur += n
		g.mu.Unlock()
		return nil
	}
	if g.waiters.Len() >= g.queueMax {
		g.mu.Unlock()
		g.rejected.Add(1)
		return ErrOverloaded
	}
	w := &gateWaiter{n: n, ready: make(chan struct{})}
	elem := g.waiters.PushBack(w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: keep the grant and
			// report admission — the caller will Release normally.
			g.mu.Unlock()
			return nil
		default:
		}
		g.waiters.Remove(elem)
		// Removing a waiter can unblock the ones behind it (FIFO order
		// otherwise head-of-line blocks smaller requests forever).
		g.grantLocked()
		g.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns n units to the gate and hands them to queued waiters in
// FIFO order.
func (g *Gate) Release(n int64) {
	if n < 1 {
		n = 1
	}
	if n > g.capacity {
		n = g.capacity
	}
	g.mu.Lock()
	g.cur -= n
	if g.cur < 0 {
		panic("resilience: Gate.Release without matching Acquire")
	}
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked admits queued waiters, in order, while capacity lasts.
func (g *Gate) grantLocked() {
	for {
		front := g.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*gateWaiter)
		if g.cur+w.n > g.capacity {
			return // FIFO: the head blocks until its units fit
		}
		g.cur += w.n
		g.waiters.Remove(front)
		close(w.ready)
	}
}

// GateStats is a snapshot of the gate's load counters.
type GateStats struct {
	// Active is the number of units currently admitted.
	Active int64
	// Queued is the number of callers currently waiting.
	Queued int
	// Rejected is the cumulative number of sheds (ErrOverloaded
	// returns).
	Rejected uint64
}

// Stats reports the gate's current load and cumulative shed count.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{Active: g.cur, Queued: g.waiters.Len(), Rejected: g.rejected.Load()}
}
