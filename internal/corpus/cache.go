package corpus

import (
	"container/list"
	"sync"
	"sync/atomic"

	"spanjoin/internal/resilience"
)

// Cache is the compiled-query cache: compiled artifacts keyed by source
// text plus options, each with the CountMemo of its key. Admission is 2Q
// (Johnson & Shasha, "2Q: A Low Overhead High Performance Buffer
// Management Replacement Algorithm", VLDB 1994), so a stream of keys
// asked for once cannot flush the keys asked for again:
//
//   - A first-time key enters probation, a FIFO queue of an eighth of
//     the capacity (at least one entry). A request while it is there is a
//     hit but moves nothing: requests close together, such as a Count and
//     then a Page of one pattern, are one use of it.
//   - A key that leaves probation or protected becomes a ghost: its key
//     and its memo, without the artifact. The newest capacity ghosts are
//     kept.
//   - A ghost's next request compiles afresh and enters protected, an LRU
//     of the rest of the capacity, with the ghost's memo — so a sweep of
//     the recompiled plan counts only the documents the memo has not.
//
// Compilation is singleflight: concurrent Gets of one missing key compile
// once and share the result. Compilation errors are returned to every
// waiter but never cached, so a transient failure does not poison the key
// (a ghost keeps its memo).
type Cache struct {
	hits, misses atomic.Uint64

	mu        sync.Mutex
	capacity  int // resident entries: probation plus protected
	probCap   int
	probation list.List                // front = newest
	protected list.List                // front = most recent
	ghosts    list.List                // front = newest
	entries   map[string]*list.Element // every key on one of the three lists
	inflight  map[string]*flight
}

// cacheEntry is one key on one of the cache's lists; val is nil on a
// ghost.
type cacheEntry struct {
	key  string
	val  any
	memo *CountMemo
	seg  *list.List
}

// flight is one in-progress compilation; waiters block on done. memo is
// the ghost's when the key was one, otherwise a new one, and ghost sends
// the compiled key to protected instead of probation.
type flight struct {
	done  chan struct{}
	val   any
	memo  *CountMemo
	ghost bool
	err   error
}

// NewCache creates a cache holding at most capacity compiled artifacts,
// an eighth of them (at least one) in probation; capacity ≤ 0 selects
// 128.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 128
	}
	return &Cache{
		capacity: capacity,
		probCap:  max(1, capacity/8),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the cached artifact for key and the key's count memo,
// compiling the artifact with compile on a miss. Concurrent Gets of one
// missing key run compile exactly once; the losers count as hits (they
// reuse the winner's work).
func (c *Cache) Get(key string, compile func() (any, error)) (any, *CountMemo, error) {
	c.mu.Lock()
	el, known := c.entries[key]
	if known {
		e := el.Value.(*cacheEntry)
		if e.seg == &c.protected {
			c.protected.MoveToFront(el)
		}
		if e.seg != &c.ghosts {
			val, memo := e.val, e.memo // demote clears val under c.mu
			c.mu.Unlock()
			c.hits.Add(1)
			return val, memo, nil
		}
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
		return f.val, f.memo, f.err
	}
	f := &flight{done: make(chan struct{}), memo: new(CountMemo)}
	if known {
		f.memo, f.ghost = el.Value.(*cacheEntry).memo, true
	}
	c.inflight[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	func() {
		// A panicking compile must not strand the waiters blocked on
		// f.done (or leave the inflight entry wedged): recover it into a
		// typed error that every waiter sees. Like real compile errors it
		// is never cached, so the key is not poisoned.
		defer func() {
			if p := recover(); p != nil {
				f.val, f.err = nil, resilience.NewPanicError(resilience.NoDoc, p)
			}
		}()
		resilience.Inject(resilience.FailCacheFill, key)
		f.val, f.err = compile()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.admit(key, f)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.memo, f.err
}

// admit makes a compiled key resident — in protected when it was a ghost,
// in probation otherwise — and trims the segments back to their shares.
// The caller holds c.mu.
func (c *Cache) admit(key string, f *flight) {
	if el, ok := c.entries[key]; ok { // the ghost, unless it aged out meanwhile
		c.ghosts.Remove(el)
	}
	seg := &c.probation
	if f.ghost {
		seg = &c.protected
	}
	c.entries[key] = seg.PushFront(&cacheEntry{key: key, val: f.val, memo: f.memo, seg: seg})
	for c.probation.Len() > c.probCap {
		c.demote(c.probation.Back())
	}
	for c.protected.Len() > c.capacity-c.probCap {
		c.demote(c.protected.Back())
	}
	for c.ghosts.Len() > c.capacity {
		delete(c.entries, c.ghosts.Remove(c.ghosts.Back()).(*cacheEntry).key)
	}
}

// demote turns the resident entry el into the newest ghost, dropping its
// artifact. The caller holds c.mu.
func (c *Cache) demote(el *list.Element) {
	e := el.Value.(*cacheEntry)
	e.seg.Remove(el)
	e.val, e.seg = nil, &c.ghosts
	c.entries[e.key] = c.ghosts.PushFront(e)
}

// Len reports the number of resident artifacts, probation and protected.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.Len() + c.protected.Len()
}

// Segments reports the entries in each segment: resident in probation,
// resident in protected, and ghosts.
func (c *Cache) Segments() (probation, protected, ghosts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.Len(), c.protected.Len(), c.ghosts.Len()
}

// Bytes sums what the cache keeps: size of every resident artifact plus
// every memo, the ghosts' included. size runs outside the cache's lock.
func (c *Cache) Bytes(size func(any) int) int {
	type kept struct {
		val  any
		memo *CountMemo
	}
	c.mu.Lock()
	held := make([]kept, 0, len(c.entries))
	for _, el := range c.entries {
		e := el.Value.(*cacheEntry)
		held = append(held, kept{e.val, e.memo})
	}
	c.mu.Unlock()
	n := 0
	for _, k := range held {
		n += k.memo.bytes()
		if k.val != nil {
			n += size(k.val)
		}
	}
	return n
}

// Stats reports cumulative hit and miss counts. A waiter that joined an
// in-flight compilation counts as a hit when the compilation succeeded
// (it reused the winner's work) and as a miss when it failed; the
// compiling caller always counts as a miss, a ghost's recompilation
// included.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
