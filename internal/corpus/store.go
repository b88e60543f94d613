// Package corpus is the multi-document layer of the engine: an append-only
// sharded document store with an optional n-gram skip index, a fan-out
// evaluator that streams (doc, tuple) results from pooled workers each
// owning a Reset-able enumerator clone, and an LRU compiled-query cache
// with singleflight compilation.
//
// The paper's polynomial-delay guarantees (Theorem 3.3, Theorem 3.11) are
// per document; this package supplies the layer above them — many
// documents, many concurrent queries, shared compiled artifacts — without
// touching the per-document complexity: every worker amortizes trimming,
// functionality checking, closure computation and letter interning across
// its whole share of the corpus exactly as Stream/Reset does for a single
// caller. The skip index goes one step further: queries with literal
// requirements visit only candidate documents instead of paying even a
// substring scan on the rest.
package corpus

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
)

// DocID identifies a document in a Store. IDs are stable for the lifetime
// of the store and encode their location: id % NumShards is the shard,
// id / NumShards the position within it, so lookup is two array indexes.
type DocID uint64

// Store is an append-only sharded document store. Adds distribute
// round-robin over the shards, each guarded by its own lock, so concurrent
// writers contend only 1/N of the time; readers (evaluation snapshots,
// Get) take the shard's read lock. Documents are never mutated or removed,
// which is what makes the snapshot discipline of Eval safe: a slice header
// captured under the read lock stays valid forever.
type Store struct {
	shards []shard
	// rr counts Adds and chooses their shards round-robin: the k-th Add
	// (from 0) goes to shard k mod n, so a single writer's IDs run
	// 0, 1, 2, ….
	rr atomic.Uint64

	// gate, when set, is the store's admission controller: every
	// evaluation and count acquires one slot for the lifetime of its
	// worker pool, so gate capacity bounds live pools (goroutines, arena
	// memory), not merely query starts. Set once before the store serves
	// queries; nil means unbounded admission.
	gate *resilience.Gate

	// dur, when set, is the store's durable half (see durable.go): every
	// Add goes through the write-ahead log first. nil for a RAM store.
	dur *durability

	// met holds the store's metrics instruments (see obs.go); the zero
	// value records nothing.
	met storeMetrics
}

// SetGate installs the store's admission gate. Call before the store
// serves queries — installation is not synchronized with running
// evaluations (they hold whatever gate they acquired at start).
func (s *Store) SetGate(g *resilience.Gate) { s.gate = g }

// GateStats reports the admission gate's counters; zero values when no
// gate is installed.
func (s *Store) GateStats() resilience.GateStats {
	if s.gate == nil {
		return resilience.GateStats{}
	}
	return s.gate.Stats()
}

type shard struct {
	mu   sync.RWMutex
	docs []string
	// idx shadows docs position-by-position when the skip index is
	// enabled; nil otherwise. Guarded by mu like docs.
	idx *prefilter.Index
}

// NewStore creates a store with the given shard count; n ≤ 0 selects
// GOMAXPROCS.
func NewStore(n int) *Store {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Store{shards: make([]shard, n)}
}

// NumShards reports the shard count fixed at creation.
func (s *Store) NumShards() int { return len(s.shards) }

// EnableIndex turns on the per-shard skip index, backfilling documents
// already stored. Idempotent and safe for concurrent use with Add, Get and
// Eval; evaluations started before the call simply do not use the index.
func (s *Store) EnableIndex() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.idx == nil {
			sh.idx = prefilter.NewIndex()
			for _, d := range sh.docs {
				sh.idx.Add(d)
			}
		}
		sh.mu.Unlock()
	}
}

// Indexed reports whether the skip index is enabled.
func (s *Store) Indexed() bool {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx != nil
}

// idOf and locate define the DocID layout in one place: shard index in
// the low digits (mod NumShards), position within the shard above.
func (s *Store) idOf(si, pos uint64) DocID {
	return DocID(pos*uint64(len(s.shards)) + si)
}

func (s *Store) locate(id DocID) (si, pos uint64) {
	n := uint64(len(s.shards))
	return uint64(id) % n, uint64(id) / n
}

// Add appends a document and returns its stable ID. Safe for concurrent
// use with Add, Get, Len and Eval. On a durable store Add goes through
// the write-ahead log and panics if the log has failed — callers that
// want the error (services) use AddErr.
func (s *Store) Add(doc string) DocID {
	if s.dur != nil {
		id, err := s.AddErr(doc)
		if err != nil {
			panic(err)
		}
		return id
	}
	si := (s.rr.Add(1) - 1) % uint64(len(s.shards))
	sh := &s.shards[si]
	sh.mu.Lock()
	pos := uint64(len(sh.docs))
	sh.docs = append(sh.docs, doc)
	if sh.idx != nil {
		sh.idx.Add(doc)
	}
	sh.mu.Unlock()
	return s.idOf(si, pos)
}

// Get returns the document with the given ID.
func (s *Store) Get(id DocID) (string, bool) {
	si, pos := s.locate(id)
	sh := &s.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if pos >= uint64(len(sh.docs)) {
		return "", false
	}
	return sh.docs[pos], true
}

// Len reports the total number of documents.
func (s *Store) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.docs)
		sh.mu.RUnlock()
	}
	return total
}

// evalShard is one shard's slice of an evaluation plan: the snapshotted
// documents plus, when the skip index constrained the requirement, the
// sorted candidate positions (constrained=false means every position).
// Positions below from are not visited: a counting sweep with a memo
// starts at the memo's high-water mark.
type evalShard struct {
	docs        []string
	cand        []uint32
	constrained bool
	from        int
}

// plan captures every shard's current document prefix plus its skip-index
// candidates for the requirement. The captured slice headers never see
// later appends (append-only store), so workers iterate them without
// locks; documents added concurrently with an Eval may or may not be
// included, but anything added before the plan is. Candidate positions are
// consistent with the snapshot: both are read under one shard read lock.
func (s *Store) plan(req prefilter.Requirement) []evalShard {
	out := make([]evalShard, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		// Outside the shard lock: an injected panic must not poison mu.
		resilience.Inject(resilience.FailPlanCandidates, i)
		sh.mu.RLock()
		es := evalShard{docs: sh.docs[:len(sh.docs):len(sh.docs)]}
		if sh.idx != nil && !req.IsEmpty() {
			es.cand, es.constrained = sh.idx.Candidates(req)
		}
		sh.mu.RUnlock()
		out[i] = es
	}
	return out
}

// work reports how many documents the shard's plan will visit.
func (es evalShard) work() int {
	if es.constrained {
		return len(es.cand)
	}
	return len(es.docs) - es.from
}

// pos maps the k-th visit (0 ≤ k < work) to its document position.
func (es evalShard) pos(k int) int {
	if es.constrained {
		return int(es.cand[k])
	}
	return es.from + k
}

// startAt drops the positions below from from the shard's plan.
func (es *evalShard) startAt(from int) {
	es.from = from
	if es.constrained {
		j := sort.Search(len(es.cand), func(j int) bool { return int(es.cand[j]) >= from })
		es.cand = es.cand[j:]
	}
}
