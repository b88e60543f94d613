package corpus

import (
	"sort"
	"sync"
	"unsafe"

	"spanjoin/internal/ranked"
)

// CountMemo remembers one pattern's per-document counts, in one
// compilation mode, across counting sweeps. A document's count depends
// only on the pattern, the mode and the document, and stored documents
// never change, so a count once computed stays valid for the life of the
// store — whichever compiled plan of the pattern computed it. Per shard
// the memo keeps a high-water position, the running total of the
// documents below it, and their non-zero (DocID, count) list; a sweep
// given the memo visits only the positions at or past each shard's mark.
//
// The zero value is an empty memo. A memo belongs to one Store and one
// cache key. The corpus cache keeps it with the key, so it outlives the
// key's plan: a key evicted to a ghost keeps its memo, and the plan
// compiled at its next request continues it. It is safe for concurrent
// use.
type CountMemo struct {
	mu sync.Mutex
	// shards is copy-on-write: a published slice, and every docs prefix
	// it references, is never written again, so load hands it out
	// without copying.
	shards []memoShard
}

// memoShard is the memo's prefix of one shard.
type memoShard struct {
	mark  int          // positions [0, mark) are counted
	total ranked.Count // the sum of their counts
	docs  []DocCount   // their non-zero counts, ascending by position
}

// shardSweep is one shard's share of a counting sweep: the snapshot
// positions [from, end), their total and, when collected, their non-zero
// counts in ascending position order.
type shardSweep struct {
	from, end int
	total     ranked.Count
	docs      []DocCount
}

// load returns the memo's per-shard prefixes, or nil for an absent or
// empty memo. The result is immutable.
func (m *CountMemo) load() []memoShard {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards
}

// bytes is what the memo holds: its per-shard records and their
// non-zero counts.
func (m *CountMemo) bytes() int {
	shards := m.load()
	n := cap(shards) * int(unsafe.Sizeof(memoShard{}))
	for _, sh := range shards {
		n += cap(sh.docs) * int(unsafe.Sizeof(DocCount{}))
	}
	return n
}

// publish extends the memo with a sweep that completed cleanly. Each
// shard's sweep started at or below the memo's current mark (marks only
// grow, and the sweep read them first); a concurrent sweep may already
// have published part of its range, so only the entries at or past the
// current mark are appended. Counts never change, so whichever sweep
// publishes a longer prefix first, the memo stays exact.
func (m *CountMemo) publish(s *Store, sweeps []shardSweep) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make([]memoShard, len(sweeps))
	copy(next, m.shards)
	grown := false
	for si := range sweeps {
		sw, old := &sweeps[si], next[si]
		if sw.end <= old.mark {
			continue
		}
		add := sw.docs
		if sw.from < old.mark {
			j := sort.Search(len(add), func(j int) bool {
				_, pos := s.locate(add[j].Doc)
				return pos >= uint64(old.mark)
			})
			add = add[j:]
		}
		total := old.total
		for _, dc := range add {
			total = total.Add(dc.N)
		}
		// Appending past old.docs' length writes only where no published
		// prefix reaches: old is the latest version of this shard.
		next[si] = memoShard{mark: sw.end, total: total, docs: append(old.docs, add...)}
		grown = true
	}
	if grown {
		m.shards = next
	}
}
