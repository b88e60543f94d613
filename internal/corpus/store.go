// Package corpus is the multi-document layer of the engine: an append-only
// sharded document store with an optional n-gram skip index, a fan-out
// evaluator that streams (doc, tuple) results from pooled workers each
// owning a Reset-able enumerator clone, and a compiled-query cache with
// 2Q admission, singleflight compilation and count memos that outlive
// evicted plans.
//
// The paper's polynomial-delay guarantees (Theorem 3.3, Theorem 3.11) are
// per document; this package supplies the layer above them — many
// documents, many concurrent queries, shared compiled artifacts — without
// touching the per-document complexity: every worker amortizes trimming,
// functionality checking, the transition table and letter interning across
// its whole share of the corpus, resetting one enumerator per document.
// The skip index goes one step further: queries with literal
// requirements visit only candidate documents instead of paying even a
// substring scan on the rest.
package corpus

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
	"spanjoin/internal/wal"
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
// already stored. The shards backfill in parallel, on at most
// min(shards, GOMAXPROCS) workers, each holding its shard's lock while it
// indexes that shard. Idempotent and safe for concurrent use with Add,
// AddAll, Get and Eval; evaluations started before the call simply do not
// use the index.
func (s *Store) EnableIndex() {
	s.eachShard(len(s.shards), func(si uint64) {
		sh := &s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.idx == nil {
			sh.idx = prefilter.NewIndex()
			for _, d := range sh.docs {
				sh.idx.Add(d)
			}
		}
	})
}

// eachShard calls f with every shard index on at most min(shards,
// GOMAXPROCS, limit) goroutines and returns once every call has.
func (s *Store) eachShard(limit int, f func(si uint64)) {
	n := uint64(len(s.shards))
	workers := min(len(s.shards), runtime.GOMAXPROCS(0), limit)
	if workers <= 1 {
		for si := range n {
			f(si)
		}
		return
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for si := next.Add(1) - 1; si < n; si = next.Add(1) - 1 {
				f(si)
			}
		}()
	}
	wg.Wait()
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

// Add appends a document and returns its stable ID: AddAll of one, so
// it panics if a durable store's log has failed. A RAM store's Add
// allocates nothing beyond the shard's growth.
func (s *Store) Add(doc string) DocID {
	var id [1]DocID
	if err := s.add(context.Background(), []string{doc}, id[:]); err != nil {
		panic(err)
	}
	return id[0]
}

// AddAll appends docs and returns their IDs, indexed like docs: AddErrCtx
// that panics if a durable store's log has failed — callers that want the
// error (services) use AddErrCtx.
func (s *Store) AddAll(docs []string) []DocID {
	ids, err := s.AddErrCtx(context.Background(), docs...)
	if err != nil {
		panic(err)
	}
	return ids
}

// AddErrCtx appends docs as one batch and returns their IDs, indexed like
// docs: exactly the IDs the same documents would get added one by one.
// Safe for concurrent use with every other method. The batch reserves its
// round-robin slots with one atomic add, then fills each shard's share —
// documents and skip index — on at most min(shards, GOMAXPROCS) workers,
// each holding its shard's lock for the whole share. On a durable store
// the batch is logged first, under durability.mu with the fill, and none
// of it becomes visible unless all of it is logged; otherwise AddErrCtx
// returns the log's error (see durable.go). ctx carries the log's
// wal_append and wal_fsync stages and does not cancel the write. A RAM
// store never fails, and an empty batch touches nothing.
func (s *Store) AddErrCtx(ctx context.Context, docs ...string) ([]DocID, error) {
	ids := make([]DocID, len(docs))
	if err := s.add(ctx, docs, ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// add is AddErrCtx writing the IDs into ids, which is as long as docs.
// Neither slice escapes, so Add's one-document batch stays on its stack:
// the workers of a parallel fill read and write copies.
func (s *Store) add(ctx context.Context, docs []string, ids []DocID) error {
	if len(docs) == 0 {
		return nil
	}
	k, n := uint64(len(docs)), uint64(len(s.shards))
	if d := s.dur; d != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		// rr moves only under d.mu here, so each record names the shard
		// the fill below deals its document to.
		recs, next := make([]wal.Record, k), s.rr.Load()
		for j, doc := range docs {
			recs[j] = wal.Record{Shard: uint32((next + uint64(j)) % n), Doc: doc}
		}
		seq, err := d.log.Append(ctx, recs...)
		if err != nil {
			return err
		}
		// Runs after the fill, before the unlock: logged and visible,
		// not yet acked.
		defer resilience.Inject(resilience.CrashBeforeAck, seq)
	}
	start := s.rr.Add(k) - k
	if k == 1 {
		s.fill(start%n, start, docs, ids)
		return nil
	}
	batch, out := slices.Clone(docs), make([]DocID, k)
	s.eachShard(len(docs), func(si uint64) { s.fill(si, start, batch, out) })
	copy(ids, out)
	return nil
}

// fill appends shard si's share of the batch whose round-robin slots
// start at start — its j-th document goes to shard (start+j) mod n — and
// records their IDs, under the shard's lock.
func (s *Store) fill(si, start uint64, docs []string, ids []DocID) {
	k, n := uint64(len(docs)), uint64(len(s.shards))
	first := (si + n - start%n) % n
	if first >= k {
		return
	}
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for j := first; j < k; j += n {
		ids[j] = s.idOf(si, uint64(len(sh.docs)))
		sh.docs = append(sh.docs, docs[j])
		if sh.idx != nil {
			sh.idx.Add(docs[j])
		}
	}
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
