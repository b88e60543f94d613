package spanjoin

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"spanjoin/internal/core"
	"spanjoin/internal/corpus"
	"spanjoin/internal/ranked"
)

// Count compiles the pattern (through the corpus cache) and returns the
// exact number of matches across every document — with no enumeration:
// shard workers aggregate per-document counts from the count kernel (a
// matrix sweep and a two-level subset count per document, no graph, cost
// independent of its result count), and documents the prefilter or skip
// index excludes count as 0 without being visited.
// The cache entry's count memo keeps every document's count, so a
// repeated Count of a cached pattern visits only the documents appended
// since the pattern's last counting sweep.
func (c *Corpus) Count(ctx context.Context, pattern string, opts ...Option) (MatchCount, error) {
	q, err := c.compileCached(ctx, "anchor", pattern, Compile)
	if err != nil {
		return MatchCount{}, err
	}
	return c.countTotal(ctx, q.sp, &q.memo, opts)
}

// CountSearch is Count with substring semantics (CompileSearch).
func (c *Corpus) CountSearch(ctx context.Context, pattern string, opts ...Option) (MatchCount, error) {
	q, err := c.compileCached(ctx, "search", pattern, CompileSearch)
	if err != nil {
		return MatchCount{}, err
	}
	return c.countTotal(ctx, q.sp, &q.memo, opts)
}

// CountSpanner is Count for a precompiled spanner (bypassing the cache,
// and so its count memo: every call sweeps the whole corpus).
// Counts honor WithTimeout and the corpus admission gate (shedding with
// ErrOverloaded); WithLimit and WithBudget apply to result streams only.
func (c *Corpus) CountSpanner(ctx context.Context, sp *Spanner, opts ...Option) (MatchCount, error) {
	return c.countTotal(ctx, sp, nil, opts)
}

// countTotal is the corpus-wide total behind Count, CountSearch and
// CountSpanner.
func (c *Corpus) countTotal(ctx context.Context, sp *Spanner, memo *corpus.CountMemo, opts []Option) (MatchCount, error) {
	res, err := c.countSpanner(ctx, sp, memo, buildOptions(opts), false)
	if err != nil {
		return MatchCount{}, err
	}
	return newMatchCount(res.Total), nil
}

// CountAll is Count broken down by document: the exact per-document
// match counts, keyed by DocID. Documents without matches have no entry.
func (c *Corpus) CountAll(ctx context.Context, pattern string, opts ...Option) (map[DocID]MatchCount, error) {
	q, err := c.compileCached(ctx, "anchor", pattern, Compile)
	if err != nil {
		return nil, err
	}
	res, err := c.countSpanner(ctx, q.sp, &q.memo, buildOptions(opts), true)
	if err != nil {
		return nil, err
	}
	out := make(map[DocID]MatchCount, len(res.PerDoc))
	for _, dc := range res.PerDoc {
		out[dc.Doc] = newMatchCount(dc.N)
	}
	return out, nil
}

// countSpanner runs the spanner's counting sweep; memo is its cache
// entry's count memo, or nil for a spanner the caller compiled.
func (c *Corpus) countSpanner(ctx context.Context, sp *Spanner, memo *corpus.CountMemo, o core.Options, perDoc bool) (*corpus.CountResult, error) {
	p, built, err := sp.compiledPlan()
	if err != nil {
		return nil, err
	}
	c.recordPlanBuild(ctx, p, built)
	return c.store.CountPlan(ctx, p, memo, c.evalOptions(sp.req, o), perDoc)
}

// CountQuery returns the exact corpus-wide result count of a conjunctive
// query. Equality-free queries not forced onto the canonical plan count
// through the shared compiled plan and the count kernel (no enumeration
// anywhere); queries with string equalities or a forced canonical plan
// count by draining each document's per-document evaluation — still
// parallel and still prefiltered.
func (c *Corpus) CountQuery(ctx context.Context, q *Query, opts ...Option) (MatchCount, error) {
	o := buildOptions(opts)
	eo := c.evalOptions(q.requirement(), o)
	if len(q.cq.Equalities) == 0 && o.Strategy != core.Canonical {
		p, built, err := q.compiledPlan()
		if err != nil {
			return MatchCount{}, err
		}
		c.recordPlanBuild(ctx, p, built)
		res, err := c.store.CountPlan(ctx, p, nil, eo, false)
		if err != nil {
			return MatchCount{}, err
		}
		return newMatchCount(res.Total), nil
	}
	newEval, err := queryDocEval(q, o)
	if err != nil {
		return MatchCount{}, err
	}
	res, err := c.store.CountFunc(ctx, newEval, eo, false)
	if err != nil {
		return MatchCount{}, err
	}
	return newMatchCount(res.Total), nil
}

// Page is one deterministic page of a corpus evaluation: the window
// [offset, offset+limit) of the corpus-wide result sequence in ascending
// DocID order (each document's matches in the engine's radix order), the
// exact total, and the prefilter counters.
type Page struct {
	Matches []CorpusMatch
	Total   MatchCount
	Stats   EvalStats
}

// EvalPage compiles the pattern (through the corpus cache) and serves
// one page of its corpus-wide results. A page costs a counting sweep
// plus one descent. The sweep runs through the shard workers in
// parallel — a document contributes one count from the count kernel,
// never a graph or an enumeration — and visits only the documents
// appended since the pattern's last sweep: the cache entry's count memo
// serves the rest (a first-time pattern sweeps the whole corpus). The
// window's documents are the only graph builds: the first is entered
// with a single DAG descent, so offset does not buy offset Next calls.
// WithTimeout interrupts those builds too. The exact Total rides along
// for pagination UIs.
func (c *Corpus) EvalPage(ctx context.Context, pattern string, offset uint64, limit int, opts ...Option) (*Page, error) {
	q, err := c.compileCached(ctx, "anchor", pattern, Compile)
	if err != nil {
		return nil, err
	}
	return c.evalPage(ctx, q.sp, &q.memo, offset, limit, opts)
}

// EvalSearchPage is EvalPage with substring semantics (CompileSearch).
func (c *Corpus) EvalSearchPage(ctx context.Context, pattern string, offset uint64, limit int, opts ...Option) (*Page, error) {
	q, err := c.compileCached(ctx, "search", pattern, CompileSearch)
	if err != nil {
		return nil, err
	}
	return c.evalPage(ctx, q.sp, &q.memo, offset, limit, opts)
}

// EvalSpannerPage is EvalPage for a precompiled spanner. It bypasses the
// cache and its count memo, so every page sweeps the whole corpus.
// WithTimeout bounds both phases — the counting sweep and the page
// stream — via a derived context; WithLimit/WithBudget do not apply (the
// page's window is the limit).
func (c *Corpus) EvalSpannerPage(ctx context.Context, sp *Spanner, offset uint64, limit int, opts ...Option) (*Page, error) {
	return c.evalPage(ctx, sp, nil, offset, limit, opts)
}

// evalPage serves a page; memo is the cache entry's count memo, or nil
// for a spanner the caller compiled.
func (c *Corpus) evalPage(ctx context.Context, sp *Spanner, memo *corpus.CountMemo, offset uint64, limit int, opts []Option) (*Page, error) {
	o := buildOptions(opts)
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
		o.Timeout = 0 // the derived context carries the deadline
	}
	p, built, err := sp.compiledPlan()
	if err != nil {
		return nil, err
	}
	c.recordPlanBuild(ctx, p, built)
	res, err := c.store.PagePlan(ctx, p, memo, c.evalOptions(sp.req, o), offset, limit)
	if err != nil {
		return nil, err
	}
	page := &Page{
		Matches: make([]CorpusMatch, 0, len(res.Matches)),
		Total:   newMatchCount(res.Total),
		Stats:   EvalStats{Scanned: res.Scanned, Skipped: res.Skipped, SkippedIndex: res.SkippedIndex, Reused: res.Reused},
	}
	var (
		lastID  DocID
		lastDoc string
		have    bool
	)
	for _, r := range res.Matches {
		if !have || r.Doc != lastID {
			lastDoc, _ = c.store.Get(r.Doc)
			lastID, have = r.Doc, true
		}
		page.Matches = append(page.Matches, CorpusMatch{
			Doc:   r.Doc,
			Match: Match{vars: p.Vars(), tuple: r.Tuple, doc: lastDoc},
		})
	}
	return page, nil
}

// Sample draws k matches i.i.d. uniformly (with replacement) from the
// corpus-wide result set of the pattern, compiled through the corpus
// cache. Uniformity is exact at any result-set size, including corpus
// totals beyond 2^64: one parallel counting sweep weights the documents
// (visiting, like EvalPage's, only documents the cache entry's count
// memo has not seen), then each draw is a weighted document pick plus
// one ranked DAG descent — no enumeration anywhere. Returns nil when
// there are no matches.
func (c *Corpus) Sample(ctx context.Context, pattern string, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	q, err := c.compileCached(ctx, "anchor", pattern, Compile)
	if err != nil {
		return nil, err
	}
	return c.sample(ctx, q.sp, &q.memo, rng, k, opts)
}

// SampleSearch is Sample with substring semantics (CompileSearch).
func (c *Corpus) SampleSearch(ctx context.Context, pattern string, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	q, err := c.compileCached(ctx, "search", pattern, CompileSearch)
	if err != nil {
		return nil, err
	}
	return c.sample(ctx, q.sp, &q.memo, rng, k, opts)
}

// SampleSpanner is Sample for a precompiled spanner (bypassing the cache
// and its count memo). The counting sweep honors WithTimeout and the
// admission gate; ranked views built for the draws are cached per
// document, so k draws cost at most min(k, matched docs) graph builds on
// top of the sweep.
func (c *Corpus) SampleSpanner(ctx context.Context, sp *Spanner, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	return c.sample(ctx, sp, nil, rng, k, opts)
}

// sample draws the k matches; memo is the cache entry's count memo, or
// nil for a spanner the caller compiled.
func (c *Corpus) sample(ctx context.Context, sp *Spanner, memo *corpus.CountMemo, rng *rand.Rand, k int, opts []Option) ([]CorpusMatch, error) {
	if k <= 0 {
		return nil, nil
	}
	res, err := c.countSpanner(ctx, sp, memo, buildOptions(opts), true)
	if err != nil {
		return nil, err
	}
	if res.Total.IsZero() {
		return nil, nil
	}
	// Cumulative per-doc counts in ascending DocID order (PerDoc is
	// sorted); big.Int throughout so totals past 2^64 keep exact weights.
	cum := make([]*big.Int, len(res.PerDoc))
	running := new(big.Int)
	for i, dc := range res.PerDoc {
		running = new(big.Int).Add(running, dc.N.BigInt())
		cum[i] = running
	}
	total := cum[len(cum)-1]
	views := make(map[DocID]*Ranked, k)
	out := make([]CorpusMatch, 0, k)
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := ranked.RandBelow(rng, total)
		j := sort.Search(len(cum), func(j int) bool { return cum[j].Cmp(r) > 0 })
		dc := res.PerDoc[j]
		within := new(big.Int).Sub(r, new(big.Int).Sub(cum[j], dc.N.BigInt()))
		rk := views[dc.Doc]
		if rk == nil {
			doc, ok := c.store.Get(dc.Doc)
			if !ok {
				return nil, fmt.Errorf("spanjoin: document %d vanished mid-sample", dc.Doc)
			}
			if rk, err = sp.Ranked(doc); err != nil {
				return nil, err
			}
			views[dc.Doc] = rk
		}
		m, ok := rk.ResultAtBig(within)
		if !ok {
			return nil, fmt.Errorf("spanjoin: rank %v inconsistent with count of document %d", within, dc.Doc)
		}
		out = append(out, CorpusMatch{Doc: dc.Doc, Match: m})
	}
	return out, nil
}

// Cursor is a resumable position in a paginated corpus evaluation: the
// compilation mode ("anchor" or "search"), the pattern, and the rank of
// the next result to serve. Token/ParseCursor round-trip it through an
// opaque URL-safe string, so services can hand deep-pagination state to
// clients without keeping any per-client state server-side. Resuming a
// cursor is one EvalPage call at any depth: a counting sweep over the
// documents appended since the pattern's last sweep (every document, the
// first time the pattern is seen) plus one descent.
type Cursor struct {
	Mode    string // "anchor" (Compile) or "search" (CompileSearch)
	Pattern string
	Offset  uint64
}

// ErrBadCursor is returned by ParseCursor for tokens that are truncated,
// corrupted, or not produced by Cursor.Token. Detect with errors.Is.
var ErrBadCursor = errors.New("spanjoin: malformed page cursor")

// cursorPrefix versions the token format; unknown prefixes are rejected
// rather than misparsed.
const cursorPrefix = "sj1."

// cursorPayload is the token's wire form. The checksum rejects tokens
// corrupted in transit (or hand-edited) before they can misaddress a
// window.
type cursorPayload struct {
	Mode    string `json:"m"`
	Pattern string `json:"p"`
	Offset  uint64 `json:"o"`
	Sum     uint32 `json:"c"`
}

// sum is the cursor's integrity checksum over every addressing field.
func (c Cursor) sum() uint32 {
	return crc32.ChecksumIEEE([]byte(c.Mode + "\x00" + c.Pattern + "\x00" + strconv.FormatUint(c.Offset, 10)))
}

// Token encodes the cursor as an opaque URL-safe string.
func (c Cursor) Token() string {
	b, err := json.Marshal(cursorPayload{Mode: c.Mode, Pattern: c.Pattern, Offset: c.Offset, Sum: c.sum()})
	if err != nil {
		// Marshaling strings and integers cannot fail.
		panic(err)
	}
	return cursorPrefix + base64.RawURLEncoding.EncodeToString(b)
}

// ParseCursor decodes a token produced by Token, rejecting anything
// malformed or checksum-inconsistent with ErrBadCursor.
func ParseCursor(tok string) (Cursor, error) {
	rest, ok := strings.CutPrefix(tok, cursorPrefix)
	if !ok {
		return Cursor{}, fmt.Errorf("%w: missing %q prefix", ErrBadCursor, cursorPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(rest)
	if err != nil {
		return Cursor{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	var p cursorPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return Cursor{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	c := Cursor{Mode: p.Mode, Pattern: p.Pattern, Offset: p.Offset}
	if c.Mode != "anchor" && c.Mode != "search" {
		return Cursor{}, fmt.Errorf("%w: unknown mode %q", ErrBadCursor, p.Mode)
	}
	if c.sum() != p.Sum {
		return Cursor{}, fmt.Errorf("%w: checksum mismatch", ErrBadCursor)
	}
	return c, nil
}

// Advance returns the cursor positioned after a page that delivered n
// results. The addition saturates at the maximum uint64 rank instead of
// wrapping, so a cursor advanced past the end of the addressable space
// stays terminal — it pages out as exhausted, never back to rank 0.
func (c Cursor) Advance(n uint64) Cursor {
	if c.Offset+n < c.Offset {
		c.Offset = math.MaxUint64
	} else {
		c.Offset += n
	}
	return c
}

// EvalCursor serves the page a cursor addresses and returns the advanced
// cursor for the page after it; more is false when the result sequence is
// exhausted at (or before) the returned cursor — including the saturation
// boundary, where ranks past 2^64-1 exist but are not uint64-addressable.
// The pattern compiles through the corpus cache under the cursor's mode,
// so resumed cursors share the original query's compiled plan.
func (c *Corpus) EvalCursor(ctx context.Context, cur Cursor, limit int, opts ...Option) (page *Page, next Cursor, more bool, err error) {
	switch cur.Mode {
	case "", "anchor":
		page, err = c.EvalPage(ctx, cur.Pattern, cur.Offset, limit, opts...)
	case "search":
		page, err = c.EvalSearchPage(ctx, cur.Pattern, cur.Offset, limit, opts...)
	default:
		return nil, cur, false, fmt.Errorf("%w: unknown mode %q", ErrBadCursor, cur.Mode)
	}
	if err != nil {
		return nil, cur, false, err
	}
	next = cur.Advance(uint64(len(page.Matches)))
	// A short page means the window ran off the end; a saturated advance
	// means the rest of the sequence is beyond uint64 addressing.
	if len(page.Matches) == limit && next.Offset > cur.Offset && next.Offset < math.MaxUint64 {
		if t, fits := page.Total.Uint64(); !fits || next.Offset < t {
			more = true
		}
	}
	return page, next, more, nil
}
