package corpus

import (
	"container/list"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// keys lists the keys of one of c's segments, front first.
func (c *Cache) keys(seg *list.List) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := seg.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

// TestCacheHitMissAndLRUEviction walks the 2Q rules on a two-entry cache
// (one probation slot, one protected): a probation hit moves nothing, a
// key that leaves a segment becomes a ghost with its memo, a ghost's next
// request compiles again and enters protected, protected evicts its least
// recent entry, and only the newest capacity ghosts are kept.
func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := NewCache(2)
	compiles := 0
	memos := make(map[string]*CountMemo)
	get := func(key string) any {
		t.Helper()
		v, memo, err := c.Get(key, func() (any, error) {
			compiles++
			return "compiled:" + key, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v != "compiled:"+key {
			t.Fatalf("Get(%s) = %v", key, v)
		}
		if memo == nil {
			t.Fatalf("Get(%s) returned no memo", key)
		}
		memos[key] = memo
		return v
	}
	segments := func(probation, protected, ghosts []string) {
		t.Helper()
		if got := c.keys(&c.probation); !slices.Equal(got, probation) {
			t.Fatalf("probation = %v, want %v", got, probation)
		}
		if got := c.keys(&c.protected); !slices.Equal(got, protected) {
			t.Fatalf("protected = %v, want %v", got, protected)
		}
		if got := c.keys(&c.ghosts); !slices.Equal(got, ghosts) {
			t.Fatalf("ghosts = %v, want %v", got, ghosts)
		}
	}

	get("a")
	get("a") // a probation hit: no promotion
	segments([]string{"a"}, nil, nil)
	aMemo := memos["a"]
	get("b") // a leaves probation as a ghost
	segments([]string{"b"}, nil, []string{"a"})
	get("a") // the ghost compiles again, into protected, with its memo
	if memos["a"] != aMemo {
		t.Fatal("a ghost's recompilation got a new memo")
	}
	segments([]string{"b"}, []string{"a"}, nil)
	get("c")
	get("a") // a protected hit
	get("b") // ghost → protected, evicting a
	segments([]string{"c"}, []string{"b"}, []string{"a"})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	get("d")
	get("e") // demotes d; past two ghosts, the oldest, a, is forgotten
	segments([]string{"e"}, []string{"b"}, []string{"d", "c"})
	get("a")
	if memos["a"] == aMemo {
		t.Fatal("a forgotten key kept its memo")
	}
	segments([]string{"a"}, []string{"b"}, []string{"e", "d"})

	if compiles != 8 {
		t.Fatalf("compiles = %d, want 8 (a, b, a-ghost, c, b-ghost, d, e, a-new)", compiles)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 8 {
		t.Fatalf("stats = %d hits / %d misses, want 2/8", hits, misses)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Get("k", func() (any, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("compile ran %d times, want 2 (errors are not cached)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after errors, want 0", c.Len())
	}
}

// TestCacheSingleflight: concurrent Gets of one missing key run the
// compile function exactly once and all observe its result and memo.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(4)
	var compiles atomic.Int32
	gate := make(chan struct{})
	const goroutines = 16
	results := make([]any, goroutines)
	memos := make([]*CountMemo, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, memo, err := c.Get("shared", func() (any, error) {
				<-gate // hold every racer in Get until all have arrived
				compiles.Add(1)
				return "artifact", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g], memos[g] = v, memo
		}(g)
	}
	close(gate)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	for g, v := range results {
		if v != "artifact" || memos[g] != memos[0] {
			t.Fatalf("goroutine %d got %v and memo %p, want artifact and %p", g, v, memos[g], memos[0])
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d/1", hits, misses, goroutines-1)
	}
}

// TestCacheConcurrentEviction: Gets from several goroutines over more
// keys than the cache holds, so hits race demotions and ghost
// recompilations, each get their own key's artifact and a memo, and the
// segments stay within their shares. Run it under -race.
func TestCacheConcurrentEviction(t *testing.T) {
	const capacity, keys, goroutines = 8, 40, 8
	c := NewCache(capacity)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				key := strconv.Itoa((i*7 + g*13) % keys)
				v, memo, err := c.Get(key, func() (any, error) { return "v" + key, nil })
				if err != nil || v != "v"+key || memo == nil {
					t.Errorf("Get(%s) = %v, %p, %v", key, v, memo, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	probation, protected, ghosts := c.Segments()
	if probation > 1 || protected > capacity-1 || ghosts > capacity || len(c.entries) != probation+protected+ghosts {
		t.Fatalf("segments %d/%d/%d with %d keys, want ≤ 1/%d/%d and one key each", probation, protected, ghosts, len(c.entries), capacity-1, capacity)
	}
}

// cacheModel is the reference for FuzzCacheModel: the 2Q rules over
// plain slices, front first. memo numbers each memo the cache should
// have created.
type cacheModel struct {
	capacity, probCap            int
	probation, protected, ghosts []string
	memo                         map[string]int
	memos                        int
}

// get applies one request and reports whether it hit and the key's memo.
func (m *cacheModel) get(key string) (hit bool, memo int) {
	if i := slices.Index(m.protected, key); i >= 0 {
		m.protected = slices.Insert(slices.Delete(m.protected, i, i+1), 0, key)
		return true, m.memo[key]
	}
	if slices.Contains(m.probation, key) {
		return true, m.memo[key]
	}
	if i := slices.Index(m.ghosts, key); i >= 0 {
		m.ghosts = slices.Delete(m.ghosts, i, i+1)
		m.protected = slices.Insert(m.protected, 0, key)
	} else {
		m.memos++
		m.memo[key] = m.memos
		m.probation = slices.Insert(m.probation, 0, key)
	}
	for len(m.probation) > m.probCap {
		m.ghosts = slices.Insert(m.ghosts, 0, m.probation[len(m.probation)-1])
		m.probation = m.probation[:len(m.probation)-1]
	}
	for len(m.protected) > m.capacity-m.probCap {
		m.ghosts = slices.Insert(m.ghosts, 0, m.protected[len(m.protected)-1])
		m.protected = m.protected[:len(m.protected)-1]
	}
	for len(m.ghosts) > m.capacity {
		delete(m.memo, m.ghosts[len(m.ghosts)-1])
		m.ghosts = m.ghosts[:len(m.ghosts)-1]
	}
	return false, m.memo[key]
}

// FuzzCacheModel drives Get with a key sequence over a 24-key alphabet
// at capacities 2–16 against cacheModel: every hit and miss, the value
// served, each segment's keys in order, and which memo each key carries —
// kept through a ghost, new after one is forgotten — must agree.
func FuzzCacheModel(f *testing.F) {
	f.Add(byte(0), []byte("aabacadaeafabab"))
	f.Add(byte(6), []byte("abcdefghijabcdefghijklmnopqrstuvwxabcd"))
	f.Add(byte(14), []byte("aaaabbbbccccabcabcxyzxyzxyzabcdefghijklmnopqrstuvwxyzab"))
	f.Fuzz(func(t *testing.T, capByte byte, seq []byte) {
		capacity := 2 + int(capByte%15)
		c := NewCache(capacity)
		m := &cacheModel{capacity: capacity, probCap: max(1, capacity/8), memo: make(map[string]int)}
		memoOf := make(map[int]*CountMemo) // model memo number → the cache's memo
		numberOf := make(map[*CountMemo]int)
		compiles := 0
		last := make(map[string]string) // the value of each key's latest compile
		for step, b := range seq {
			key := string(rune('a' + b%24))
			compiled := false
			v, memo, err := c.Get(key, func() (any, error) {
				compiled = true
				compiles++
				return key + strconv.Itoa(compiles), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if compiled {
				last[key] = v.(string)
			}
			hit, want := m.get(key)
			if hit == compiled {
				t.Fatalf("step %d, Get(%s): compiled = %v, model hit = %v", step, key, compiled, hit)
			}
			if v != last[key] {
				t.Fatalf("step %d, Get(%s) = %v, want %v", step, key, v, last[key])
			}
			if got, ok := memoOf[want]; !ok {
				if n, reused := numberOf[memo]; reused {
					t.Fatalf("step %d, Get(%s): model memo %d got model memo %d's memo", step, key, want, n)
				}
				memoOf[want], numberOf[memo] = memo, want
			} else if got != memo {
				t.Fatalf("step %d, Get(%s): memo %p, want model memo %d (%p)", step, key, memo, want, got)
			}
			for _, seg := range []struct {
				name  string
				got   []string
				model []string
			}{
				{"probation", c.keys(&c.probation), m.probation},
				{"protected", c.keys(&c.protected), m.protected},
				{"ghosts", c.keys(&c.ghosts), m.ghosts},
			} {
				if !slices.Equal(seg.got, seg.model) {
					t.Fatalf("step %d, after Get(%s): %s = %v, model %v", step, key, seg.name, seg.got, seg.model)
				}
			}
		}
	})
}
