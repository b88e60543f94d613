package spanjoin

import (
	"context"
	"errors"
	"runtime"
	"time"

	"spanjoin/internal/core"
	"spanjoin/internal/corpus"
	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
	"spanjoin/internal/span"
)

// DocID identifies a document in a Corpus; IDs are stable for the life of
// the corpus.
type DocID = corpus.DocID

// Corpus is a sharded, append-only collection of documents with a shared
// compiled-query cache — the engine's multi-document layer. Add documents
// from any number of goroutines; run a Target — a pattern, spanner or
// query — over the whole corpus with Eval, Count, Page or Sample, which
// fan the shards out to a worker pool (each worker owning one Reset-able
// enumerator over the shared compiled automaton). Eval streams (DocID,
// Match) results through a bounded channel with context cancellation.
//
// Repeated operations on the same Anchored or Search pattern hit the
// compiled-query cache; concurrent identical misses compile once
// (singleflight). The cache admits by 2Q: a new pattern's plan waits in a
// small probation queue, so patterns asked for once cannot flush the
// ones in use, and a pattern asked for again after it left the cache
// compiles afresh into the protected LRU, keeping the count memo the
// cache held on to. A Corpus is safe for concurrent use.
type Corpus struct {
	store   *corpus.Store
	cache   *corpus.Cache
	workers int
	buffer  int

	// reg is the corpus's metrics registry (see observability.go); always
	// non-nil, shared by every layer below (store, WAL) and exposed by
	// Metrics for scraping. Its stage recorder records the cache and
	// plan_build stages here, the others in the layers below.
	reg *obs.Registry
}

// corpusConfig collects the options of NewCorpus and Open.
type corpusConfig struct {
	shards        int
	cacheCap      int
	workers       int
	buffer        int
	indexed       bool
	maxConcurrent int
	maxQueue      int

	// Durable-corpus knobs (Open only; see durable.go).
	syncPolicy        SyncPolicy
	syncInterval      time.Duration
	snapshotThreshold int64
}

// CorpusOption configures a Corpus at creation.
type CorpusOption func(*corpusConfig)

// WithShards sets the shard count (default GOMAXPROCS). More shards mean
// less write contention and finer-grained evaluation work units.
func WithShards(n int) CorpusOption {
	return func(c *corpusConfig) { c.shards = n }
}

// WithCacheCapacity bounds the compiled patterns the corpus keeps
// (default 128): an eighth of them, at least one, in probation, where new
// patterns wait, and the rest in the protected LRU, which a pattern
// enters when asked for again after it left the cache. The cache also
// remembers the count memos of up to n evicted patterns, without their
// plans.
func WithCacheCapacity(n int) CorpusOption {
	return func(c *corpusConfig) { c.cacheCap = n }
}

// WithWorkers sets the evaluation pool size (default GOMAXPROCS).
func WithWorkers(n int) CorpusOption {
	return func(c *corpusConfig) { c.workers = n }
}

// WithResultBuffer sets the result channel capacity of corpus evaluations
// (default 256) — the window by which enumeration may run ahead of the
// consumer.
func WithResultBuffer(n int) CorpusOption {
	return func(c *corpusConfig) { c.buffer = n }
}

// WithIndex enables the per-shard skip index: each Add also records the
// document's byte bigrams and trigrams in posting lists, and evaluations
// whose pattern or query carries literal requirements intersect those
// postings to visit only candidate documents — non-candidates cost
// nothing, not even a substring scan. Queries without derivable literals
// are unaffected. A gram's postings are a position array while sparse and
// a bitmap while dense, and hold at most about twice the smaller form:
// min(4 bytes per document holding the gram, one bit per document from
// its first to its last). On e2ebench's adhoc corpus (3,000 documents,
// 0.9 MB, two shards) the index holds 0.94 MB, where one uint32 per
// distinct gram per document took 4.7 MB.
func WithIndex() CorpusOption {
	return func(c *corpusConfig) { c.indexed = true }
}

// NewCorpus creates an empty corpus.
func NewCorpus(opts ...CorpusOption) *Corpus {
	var cfg corpusConfig
	for _, o := range opts {
		o(&cfg)
	}
	store := corpus.NewStore(cfg.shards)
	if cfg.indexed {
		store.EnableIndex()
	}
	if cfg.maxConcurrent > 0 {
		store.SetGate(resilience.NewGate(int64(cfg.maxConcurrent), cfg.maxQueue))
	}
	return newCorpus(store, cfg, obs.NewRegistry())
}

// newCorpus finishes construction for NewCorpus and Open: the cache, and
// the metrics registry reg wired through every layer. The gate and
// durable half must already be installed on the store — SetRegistry
// registers their instruments only when present.
func newCorpus(store *corpus.Store, cfg corpusConfig, reg *obs.Registry) *Corpus {
	c := &Corpus{
		store:   store,
		cache:   corpus.NewCache(cfg.cacheCap),
		workers: cfg.workers,
		buffer:  cfg.buffer,
		reg:     reg,
	}
	store.SetRegistry(reg)
	c.reg.CounterFunc("spanjoin_cache_hits_total", "Compiled-query cache hits, including singleflight joiners.", func() uint64 { h, _ := c.cache.Stats(); return h })
	c.reg.CounterFunc("spanjoin_cache_misses_total", "Compiled-query cache misses (compilations run).", func() uint64 { _, m := c.cache.Stats(); return m })
	const resident = "Compiled artifacts currently cached, by 2Q segment."
	c.reg.Gauge("spanjoin_cache_resident", resident, func() float64 { p, _, _ := c.cache.Segments(); return float64(p) },
		obs.Label{Key: "segment", Value: "probation"})
	c.reg.Gauge("spanjoin_cache_resident", resident, func() float64 { _, p, _ := c.cache.Segments(); return float64(p) },
		obs.Label{Key: "segment", Value: "protected"})
	c.reg.Gauge("spanjoin_cache_ghosts", "Evicted patterns the cache still keeps with their count memos, without plans.",
		func() float64 { _, _, g := c.cache.Segments(); return float64(g) })
	c.reg.Gauge("spanjoin_cache_bytes", "Bytes the compiled-query cache keeps: what the resident plans retain, plus every count memo.",
		func() float64 { return float64(c.cache.Bytes(spannerBytes)) })
	return c
}

// Add appends a document and returns its stable ID. The empty string is
// a valid document — counted by Len, durable on a durable corpus, and
// evaluated like any other. On a durable corpus whose log has failed Add
// panics with the log's error; use AddErrCtx to handle it instead.
func (c *Corpus) Add(doc string) DocID { return c.store.Add(doc) }

// AddAll appends documents as one batch and returns their IDs, indexed
// like docs: the IDs the same Adds would return one by one. The shards
// fill in parallel, on at most min(shards, GOMAXPROCS) workers, each
// holding its shard's lock for the batch's whole share of it — documents
// and skip index — so concurrent readers of a shard wait for its share.
// A durable corpus first logs the whole batch, paying one fsync under
// SyncAlways, and panics like Add if its log has failed; AddErrCtx
// returns the error instead.
func (c *Corpus) AddAll(docs ...string) []DocID { return c.store.AddAll(docs) }

// Doc returns the document with the given ID.
func (c *Corpus) Doc(id DocID) (string, bool) { return c.store.Get(id) }

// Len reports the number of documents.
func (c *Corpus) Len() int { return c.store.Len() }

// Indexed reports whether the skip index is enabled (WithIndex).
func (c *Corpus) Indexed() bool { return c.store.Indexed() }

// NumShards reports the shard count.
func (c *Corpus) NumShards() int { return c.store.NumShards() }

// CacheStats is a snapshot of the compiled-query cache counters.
type CacheStats struct {
	// Hits counts pattern compilations served from the cache, including
	// callers that joined an in-flight compilation (singleflight).
	Hits uint64
	// Misses counts compilations actually run.
	Misses uint64
	// Resident is the number of compiled artifacts currently cached, in
	// probation and protected.
	Resident int
	// Bytes is what the cache keeps: the bytes the resident plans retain
	// (their letter and transition tables, idle build caches and count
	// DFAs) plus every count memo, those of evicted patterns included.
	Bytes int
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats reports the compiled-query cache counters.
func (c *Corpus) CacheStats() CacheStats {
	h, m := c.cache.Stats()
	return CacheStats{Hits: h, Misses: m, Resident: c.cache.Len(), Bytes: c.cache.Bytes(spannerBytes)}
}

// CorpusMatch is one streamed corpus result: a match bound to the document
// it was extracted from.
type CorpusMatch struct {
	Doc   DocID
	Match Match
}

// CorpusMatches streams the results of Corpus.Eval. Drain it with Next,
// then check Err; Close aborts early. Results arrive in no
// guaranteed order across documents, but within one document in the
// engine's deterministic radix order.
type CorpusMatches struct {
	res   *corpus.Results
	store *corpus.Store
	vars  span.VarList

	// Last resolved document: matches of one document arrive contiguously,
	// so this avoids a store lookup (shard read lock) per streamed tuple.
	lastID  DocID
	lastDoc string
	lastOK  bool
}

// Next returns the next match; ok is false when the stream is exhausted,
// cancelled or failed — distinguish with Err.
func (m *CorpusMatches) Next() (CorpusMatch, bool) {
	r, ok := m.res.Next()
	if !ok {
		return CorpusMatch{}, false
	}
	if !m.lastOK || r.Doc != m.lastID {
		m.lastDoc, _ = m.store.Get(r.Doc)
		m.lastID, m.lastOK = r.Doc, true
	}
	return CorpusMatch{Doc: r.Doc, Match: Match{vars: m.vars, tuple: r.Tuple, doc: m.lastDoc}}, true
}

// Vars lists the output variables.
func (m *CorpusMatches) Vars() []string { return append([]string(nil), m.vars...) }

// Err reports the first evaluation error or the context's error after a
// cancellation; nil after normal exhaustion, after Close, and after a
// stream that ended by reaching its WithLimit cap. Failure modes are
// typed: an exceeded WithTimeout deadline is context.DeadlineExceeded, an
// exhausted WithBudget is ErrBudgetExceeded, and a panic anywhere in the
// evaluation is a *PanicError — all detectable with errors.Is/errors.As.
func (m *CorpusMatches) Err() error { return m.res.Err() }

// EvalStats is a snapshot of a corpus evaluation's prefilter and work
// counters.
type EvalStats struct {
	// Scanned counts documents the engine actually evaluated.
	Scanned uint64
	// Skipped counts documents the prefilter excluded: skip-index
	// non-candidates plus documents failing the literal requirement scan.
	// Scanned+Skipped+Reused equals the snapshot size once the stream
	// drains.
	Skipped uint64
	// SkippedIndex is the subset of Skipped the skip index excluded
	// outright — never visited, not even for a substring scan. Zero
	// without WithIndex.
	SkippedIndex uint64
	// Reused counts documents whose match counts a page of an Anchored
	// or Search target (Page, EvalCursor) took from the pattern's count
	// memo instead of visiting them. Zero for streams and for Of and
	// OfQuery targets.
	Reused uint64
	// Work is the work units spent so far — one per byte of every scanned
	// document plus one per delivered result; the meter WithBudget is
	// charged against.
	Work uint64
	// Delivered counts results the stream has handed out so far; bounded
	// by WithLimit when one is set.
	Delivered uint64
}

// Visited counts the documents the evaluation touched at all: scanned
// plus those rejected by the literal scan (the skip index's candidate
// set, when the index is on).
func (s EvalStats) Visited() uint64 { return s.Scanned + s.Skipped - s.SkippedIndex }

// Stats reports how many documents the evaluation scanned and skipped so
// far; final after Next has returned ok=false.
func (m *CorpusMatches) Stats() EvalStats {
	return EvalStats{
		Scanned:      m.res.Scanned(),
		Skipped:      m.res.Skipped(),
		SkippedIndex: m.res.SkippedIndex(),
		Work:         m.res.Work(),
		Delivered:    m.res.Delivered(),
	}
}

// Close aborts the evaluation and releases its worker pool. It is
// idempotent and safe to call from any number of goroutines concurrently
// — with each other, with Next, and after exhaustion.
func (m *CorpusMatches) Close() { m.res.Close() }

// newMatches wraps a result stream, arranging for an abandoned stream —
// one the caller neither drains nor Closes — to release its worker pool
// (and admission slot) when the wrapper becomes unreachable. The cleanup
// attaches to the public wrapper, not the internal Results: the pool's
// goroutines keep Results reachable, so only the wrapper's reachability
// tracks the caller's interest.
func (c *Corpus) newMatches(res *corpus.Results) *CorpusMatches {
	m := &CorpusMatches{res: res, store: c.store, vars: res.Vars()}
	runtime.AddCleanup(m, func(r *corpus.Results) { go r.Close() }, res)
	return m
}

// evalOptions maps the public per-query options onto the corpus layer's,
// resolving WithTimeout into an absolute deadline at call time.
func (c *Corpus) evalOptions(req prefilter.Requirement, o core.Options) corpus.EvalOptions {
	eo := corpus.EvalOptions{
		Workers:  c.workers,
		Buffer:   c.buffer,
		Required: req,
		Limit:    o.Limit,
		Budget:   o.Budget,
	}
	if o.Timeout > 0 {
		eo.Deadline = time.Now().Add(o.Timeout)
	}
	return eo
}

// Target is what a corpus operation evaluates: a pattern compiled through
// the corpus cache (Anchored, Search), a spanner the caller compiled (Of)
// or a query (OfQuery, OfUnion). Eval, Count, Page and Sample take any
// target. The zero Target names nothing, and every operation that
// resolves it fails.
type Target struct {
	mode    string // "anchor" or "search": a pattern compiled through the cache
	pattern string
	sp      *Spanner
	q       *compiled
}

// Anchored targets a pattern that must match whole documents (Compile),
// like Spanner.Eval. It compiles through the corpus cache: repeated
// operations share one compiled plan while the cache keeps it, and the
// pattern's count memo lets a repeated Count, Page or Sample visit only
// the documents appended since the pattern's last counting sweep. The
// memo outlives the plan: a pattern the cache evicted and recompiles
// still counts only the documents its memo has not.
func Anchored(pattern string) Target { return Target{mode: "anchor", pattern: pattern} }

// Search targets a pattern with substring semantics (CompileSearch),
// cached like Anchored, plan and count memo, but separately from anchored
// compiles of the same source.
func Search(pattern string) Target { return Target{mode: "search", pattern: pattern} }

// Of targets a precompiled spanner. It bypasses the cache, and so the
// count memo: every Count, Page or Sample sweeps the whole corpus. The
// spanner's plan is memoized on the spanner itself.
func Of(sp *Spanner) Target { return Target{sp: sp} }

// OfQuery targets a conjunctive query. A query without string equalities
// compiles once into a single automaton (Theorem 3.11), memoized on the
// query, and runs as that spanner would under Of, whatever plan the Auto
// planner picks for Query.Evaluate. A query with equalities, whose
// automata exist only per input string (Theorem 5.4), or one run under
// WithStrategy(StrategyCanonical) evaluates document by document: Eval
// and Count serve it, Page and Sample fail on it.
func OfQuery(q *Query) Target {
	if q == nil {
		return Target{}
	}
	return Target{q: &q.compiled}
}

// OfUnion targets a union of conjunctive queries, as OfQuery targets one:
// an equality-free union not forced onto the canonical plan is one
// spanner, and any other union evaluates document by document.
func OfUnion(u *UnionQuery) Target {
	if u == nil {
		return Target{}
	}
	return Target{q: &u.compiled}
}

// perDocument reports whether t is a query that cannot share one plan.
func (t Target) perDocument(o core.Options) bool {
	return t.q != nil && !t.q.shared(o)
}

// resolved is a target bound to what runs it: a compiled plan every
// document shares or, for a query that cannot share one, a per-document
// evaluator over vars. req is the literal requirement that prefilters
// either; memo is a cached pattern's count memo, nil for other targets.
type resolved struct {
	plan   *enum.Plan
	memo   *corpus.CountMemo
	req    prefilter.Requirement
	vars   span.VarList
	perDoc corpus.NewDocEval
}

var (
	errNoTarget    = errors.New("spanjoin: empty corpus target (build one with Anchored, Search, Of, OfQuery or OfUnion)")
	errPerDocument = errors.New("spanjoin: a query with string equalities or StrategyCanonical evaluates per document and cannot be paged or sampled")
)

// resolve binds t for one operation: a pattern compiles through the cache,
// a query that shares one plan resolves to its spanner, and a spanner's
// plan is memoized on it — the call that builds it records the plan_build
// stage. Any other query gets a per-document evaluator. The requirement is
// the plan-level one for queries (the conjunction of the atoms'):
// equalities and projection only restrict results further, so it stays
// necessary under every plan.
func (c *Corpus) resolve(ctx context.Context, t Target, o core.Options) (r resolved, err error) {
	sp := t.sp
	switch {
	case t.mode != "":
		compile := Compile
		if t.mode == "search" {
			compile = CompileSearch
		}
		if sp, r.memo, err = c.compileCached(ctx, t.mode, t.pattern, compile); err != nil {
			return r, err
		}
	case t.perDocument(o):
		r.req, r.vars, r.perDoc = t.q.ucq.Requirement(), t.q.ucq.OutVars(), t.q.docEval(o)
		return r, nil
	case t.q != nil:
		if sp, _, err = t.q.compile(); err != nil {
			return r, err
		}
	case sp == nil:
		return r, errNoTarget
	}
	p, built, err := sp.compiledPlan()
	if err != nil {
		return resolved{}, err
	}
	c.recordPlanBuild(ctx, p, built)
	r.plan, r.req = p, sp.req
	return r, nil
}

// Eval evaluates the target over every document, streaming matches. A
// plan-backed target compiles at most once and then runs pure matrix
// sweeps — each worker Resets one enumerator over the shared plan, whose
// byte-class transition table is built when its first document is swept
// — and the target's required-literal prefilter skips non-matching
// documents before any per-document work. Options bound the evaluation:
// WithTimeout, WithLimit, WithBudget. An overloaded corpus
// (WithMaxConcurrent) sheds the call synchronously with ErrOverloaded
// before any worker starts.
func (c *Corpus) Eval(ctx context.Context, t Target, opts ...Option) (*CorpusMatches, error) {
	o := buildOptions(opts)
	r, err := c.resolve(ctx, t, o)
	if err != nil {
		return nil, err
	}
	var res *corpus.Results
	if r.plan != nil {
		res, err = c.store.EvalPlan(ctx, r.plan, c.evalOptions(r.req, o))
	} else {
		res, err = c.store.EvalFunc(ctx, r.vars, r.perDoc, c.evalOptions(r.req, o))
	}
	if err != nil {
		return nil, err
	}
	return c.newMatches(res), nil
}

// compileCached deduplicates compilation through the compiled-query
// cache, keyed by the pattern source plus the compilation mode;
// concurrent misses on one key compile once. It returns the spanner and
// the key's count memo, which the cache keeps even after it drops the
// spanner. The lookup is recorded as the cache stage, with Items=1 on a
// miss (the compile closure runs on this goroutine, so the flag needs no
// synchronization) and Items=0 on a hit.
//
//spanjoin:stage cache
func (c *Corpus) compileCached(ctx context.Context, mode, pattern string, compile func(string) (*Spanner, error)) (*Spanner, *corpus.CountMemo, error) {
	t0 := time.Now()
	var missed int64
	v, memo, err := c.cache.Get(mode+"\x00"+pattern, func() (any, error) {
		missed = 1
		return compile(pattern)
	})
	c.reg.Stages().ObserveItems(ctx, obs.StageCache, time.Since(t0), missed)
	if err != nil {
		return nil, nil, err
	}
	return v.(*Spanner), memo, nil
}

// spannerBytes sizes a cached spanner for the cache's byte count: what
// its plan retains (enum.Plan.RetainedBytes), 0 before the plan exists.
func spannerBytes(v any) int {
	if p := v.(*Spanner).plan.Load(); p != nil {
		return p.RetainedBytes()
	}
	return 0
}

// recordPlanBuild records a plan compilation that this query actually
// ran — built is false for every later call hitting the memoized plan —
// as the plan_build stage.
//
//spanjoin:stage plan_build
func (c *Corpus) recordPlanBuild(ctx context.Context, p *enum.Plan, built bool) {
	if built && p != nil {
		c.reg.Stages().Observe(ctx, obs.StagePlan, p.BuildDuration())
	}
}
