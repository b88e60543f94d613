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

// Count returns the exact number of the target's matches across every
// document — with no enumeration for a plan-backed target: shard workers
// aggregate per-document counts from the count kernel (one pass per
// document over the plan's lazily determinized count automaton, no graph,
// cost independent of its result count), and documents the prefilter or
// skip index excludes
// count as 0 without being visited. A per-document query target counts by
// draining each document's evaluation — still parallel and still
// prefiltered. An Anchored or Search target's count memo keeps every
// document's count, so a repeated Count of a cached pattern visits only
// the documents appended since the pattern's last counting sweep.
// Counts honor WithTimeout and the corpus admission gate (shedding with
// ErrOverloaded); WithLimit and WithBudget apply to result streams only.
func (c *Corpus) Count(ctx context.Context, t Target, opts ...Option) (MatchCount, error) {
	o := buildOptions(opts)
	r, err := c.resolve(ctx, t, o)
	if err != nil {
		return MatchCount{}, err
	}
	var res *corpus.CountResult
	if r.plan != nil {
		res, err = c.store.CountPlan(ctx, r.plan, r.memo, c.evalOptions(r.req, o), false)
	} else {
		res, err = c.store.CountFunc(ctx, r.perDoc, c.evalOptions(r.req, o), false)
	}
	if err != nil {
		return MatchCount{}, err
	}
	return newMatchCount(res.Total), nil
}

// CountSearch is Count(ctx, Search(pattern), opts...).
//
// Deprecated: use Count with a Search target.
func (c *Corpus) CountSearch(ctx context.Context, pattern string, opts ...Option) (MatchCount, error) {
	return c.Count(ctx, Search(pattern), opts...)
}

// Page is one deterministic page of a corpus evaluation, as Corpus.Page
// and EvalCursor serve it: the window [offset, offset+limit) of the
// corpus-wide result sequence in ascending DocID order (each document's
// matches in the engine's radix order), the exact total, and the
// prefilter counters.
type Page struct {
	Matches []CorpusMatch
	Total   MatchCount
	Stats   EvalStats
}

// withDeadline derives the context an operation runs under from its
// WithTimeout, once, and clears the option: the derived context carries
// the deadline through the counting sweep and every graph build after it.
func withDeadline(ctx context.Context, o *core.Options) (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return ctx, func() {}
	}
	d := o.Timeout
	o.Timeout = 0
	return context.WithTimeout(ctx, d)
}

// resolveRanked is resolve for Page and Sample, which need a plan-backed
// target: per-document queries have no ranked counts to page or draw
// through, so they fail before their evaluator is built.
func (c *Corpus) resolveRanked(ctx context.Context, t Target, o core.Options) (resolved, error) {
	if t.perDocument(o) {
		return resolved{}, errPerDocument
	}
	return c.resolve(ctx, t, o)
}

// Page serves one page of the target's corpus-wide results. A page costs
// a counting sweep plus one descent. The sweep runs through the shard
// workers in parallel — a document contributes one count from the count
// kernel, never a graph or an enumeration — and, for an Anchored or
// Search target, visits only the documents appended since the pattern's
// last sweep: the cache entry's count memo serves the rest (a first-time
// pattern, and every Of or OfQuery target, sweeps the whole corpus). The
// window's documents are the only graph builds: the first is entered
// with a single DAG descent, so offset does not buy offset Next calls.
// WithTimeout bounds both phases, graph builds included; WithLimit and
// WithBudget do not apply (the page's window is the limit). The exact
// Total rides along for pagination UIs. A per-document query target
// fails with an error.
func (c *Corpus) Page(ctx context.Context, t Target, offset uint64, limit int, opts ...Option) (*Page, error) {
	o := buildOptions(opts)
	ctx, cancel := withDeadline(ctx, &o)
	defer cancel()
	r, err := c.resolveRanked(ctx, t, o)
	if err != nil {
		return nil, err
	}
	res, err := c.store.PagePlan(ctx, r.plan, r.memo, c.evalOptions(r.req, o), offset, limit)
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
	for _, m := range res.Matches {
		if !have || m.Doc != lastID {
			lastDoc, _ = c.store.Get(m.Doc)
			lastID, have = m.Doc, true
		}
		page.Matches = append(page.Matches, CorpusMatch{
			Doc:   m.Doc,
			Match: Match{vars: r.plan.Vars(), tuple: m.Tuple, doc: lastDoc},
		})
	}
	return page, nil
}

// Sample draws k matches i.i.d. uniformly (with replacement) from the
// target's corpus-wide result set. Uniformity is exact at any result-set
// size, including corpus totals beyond 2^64: one parallel counting sweep
// weights the documents (visiting, like Page's, only documents an
// Anchored or Search target's count memo has not seen), then each draw is
// a weighted document pick plus one ranked DAG descent — no enumeration
// anywhere. A drawn document's ranked view is built once, so k draws cost
// at most min(k, matched docs) graph builds on top of the sweep.
// WithTimeout bounds the sweep and those builds. Returns nil when there
// are no matches; a per-document query target fails with an error. A
// k ≤ 0 returns nil before the target is resolved: nothing compiles, and
// not even an empty target is an error.
func (c *Corpus) Sample(ctx context.Context, t Target, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	if k <= 0 {
		return nil, nil
	}
	o := buildOptions(opts)
	ctx, cancel := withDeadline(ctx, &o)
	defer cancel()
	r, err := c.resolveRanked(ctx, t, o)
	if err != nil {
		return nil, err
	}
	res, err := c.store.CountPlan(ctx, r.plan, r.memo, c.evalOptions(r.req, o), true)
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
	// Decoded matches do not view a graph: the views' arenas go back to
	// the pool on every return.
	views := make(map[DocID]*Ranked, k)
	defer func() {
		for _, rk := range views {
			rk.release()
		}
	}()
	out := make([]CorpusMatch, 0, k)
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rank := ranked.RandBelow(rng, total)
		j := sort.Search(len(cum), func(j int) bool { return cum[j].Cmp(rank) > 0 })
		dc := res.PerDoc[j]
		within := new(big.Int).Sub(rank, new(big.Int).Sub(cum[j], dc.N.BigInt()))
		rk := views[dc.Doc]
		if rk == nil {
			doc, ok := c.store.Get(dc.Doc)
			if !ok {
				return nil, fmt.Errorf("spanjoin: document %d vanished mid-sample", dc.Doc)
			}
			if rk, err = rankedOn(ctx, r.plan, doc); err != nil {
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

// SampleSearch is Sample(ctx, Search(pattern), rng, k, opts...).
//
// Deprecated: use Sample with a Search target.
func (c *Corpus) SampleSearch(ctx context.Context, pattern string, rng *rand.Rand, k int, opts ...Option) ([]CorpusMatch, error) {
	return c.Sample(ctx, Search(pattern), rng, k, opts...)
}

// Cursor is a resumable position in a paginated corpus evaluation: the
// compilation mode ("anchor" or "search"), the pattern, and the rank of
// the next result to serve. Token/ParseCursor round-trip it through an
// opaque URL-safe string, so services can hand deep-pagination state to
// clients without keeping any per-client state server-side. Resuming a
// cursor is one Page call on its Target at any depth: a counting sweep
// over the documents appended since the pattern's last sweep (every
// document, the first time the pattern is seen) plus one descent.
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

// Target maps the cursor's mode to the target it pages: Anchored for
// "anchor" (and an empty mode), Search for "search". Any other mode is
// an ErrBadCursor.
func (c Cursor) Target() (Target, error) {
	switch c.Mode {
	case "", "anchor":
		return Anchored(c.Pattern), nil
	case "search":
		return Search(c.Pattern), nil
	}
	return Target{}, fmt.Errorf("%w: unknown mode %q", ErrBadCursor, c.Mode)
}

// EvalCursor serves the page a cursor addresses and returns the advanced
// cursor for the page after it; more is false when the result sequence is
// exhausted at (or before) the returned cursor — including the saturation
// boundary, where ranks past 2^64-1 exist but are not uint64-addressable.
// The pattern compiles through the corpus cache under the cursor's mode,
// so resumed cursors share the original query's compiled plan. The
// returned cursor names its mode explicitly, so its token parses even
// when cur's mode was empty.
func (c *Corpus) EvalCursor(ctx context.Context, cur Cursor, limit int, opts ...Option) (page *Page, next Cursor, more bool, err error) {
	t, err := cur.Target()
	if err != nil {
		return nil, cur, false, err
	}
	cur.Mode = t.mode
	if page, err = c.Page(ctx, t, cur.Offset, limit, opts...); err != nil {
		return nil, cur, false, err
	}
	next = cur.Advance(uint64(len(page.Matches)))
	// A short page means the window ran off the end; a saturated advance
	// means the rest of the sequence is beyond uint64 addressing.
	if len(page.Matches) == limit && next.Offset > cur.Offset && next.Offset < math.MaxUint64 {
		if total, fits := page.Total.Uint64(); !fits || next.Offset < total {
			more = true
		}
	}
	return page, next, more, nil
}
