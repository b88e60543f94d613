package spanjoin_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spanjoin"
)

func TestCursorTokenRoundTrip(t *testing.T) {
	for _, cur := range []spanjoin.Cursor{
		{Mode: "anchor", Pattern: `.*x{mail}.*`, Offset: 0},
		{Mode: "search", Pattern: `x{a+}`, Offset: 12345},
		{Mode: "anchor", Pattern: "p with spaces + []{}", Offset: math.MaxUint64},
	} {
		tok := cur.Token()
		got, err := spanjoin.ParseCursor(tok)
		if err != nil {
			t.Fatalf("ParseCursor(%q): %v", tok, err)
		}
		if got != cur {
			t.Errorf("round trip: got %+v, want %+v", got, cur)
		}
	}
}

// FuzzParseCursor feeds ParseCursor arbitrary tokens — the one input a
// network client hands the pagination path verbatim. It must never panic;
// a token it accepts must round-trip (the parsed cursor's Token parses
// back to the same cursor); a token it rejects must say so with
// ErrBadCursor.
func FuzzParseCursor(f *testing.F) {
	for _, cur := range []spanjoin.Cursor{
		{Mode: "anchor", Pattern: `.*x{mail}.*`, Offset: 0},
		{Mode: "search", Pattern: `z{1234} c{[A-Z][a-z]+}`, Offset: 7},
		{Mode: "search", Pattern: "x{é}\x00", Offset: math.MaxUint64},
	} {
		tok := cur.Token()
		f.Add(tok)
		f.Add(tok[:len(tok)-3])
	}
	f.Add("")
	f.Add("sj1.")
	f.Add("sj1.e30")
	f.Fuzz(func(t *testing.T, tok string) {
		cur, err := spanjoin.ParseCursor(tok)
		if err != nil {
			if !errors.Is(err, spanjoin.ErrBadCursor) {
				t.Fatalf("ParseCursor(%q) = %v, not an ErrBadCursor", tok, err)
			}
			return
		}
		again, err := spanjoin.ParseCursor(cur.Token())
		if err != nil {
			t.Fatalf("accepted %q, but its cursor's token does not parse: %v", tok, err)
		}
		if again != cur {
			t.Fatalf("accepted %q as %+v, which round-trips to %+v", tok, cur, again)
		}
	})
}

func TestCursorTokenRejectsTampering(t *testing.T) {
	tok := spanjoin.Cursor{Mode: "anchor", Pattern: "x{a}", Offset: 7}.Token()
	bad := []string{
		"",
		"sj1.",
		"not-a-token",
		"sj2." + strings.TrimPrefix(tok, "sj1."), // unknown version
		tok + "AA",                               // trailing garbage
		tok[:len(tok)-2],                         // truncated
		// Flip a payload character: either invalid JSON/base64 or a
		// checksum mismatch — both must reject.
		tok[:5] + string('A'+(tok[5]-'A'+1)%26) + tok[6:],
	}
	for _, b := range bad {
		if _, err := spanjoin.ParseCursor(b); !errors.Is(err, spanjoin.ErrBadCursor) {
			t.Errorf("ParseCursor(%q) = %v, want ErrBadCursor", b, err)
		}
	}
}

func TestCursorAdvanceSaturates(t *testing.T) {
	c := spanjoin.Cursor{Mode: "anchor", Pattern: "x{a}", Offset: math.MaxUint64 - 3}
	if got := c.Advance(2).Offset; got != math.MaxUint64-1 {
		t.Errorf("Advance(2) = %d, want %d", got, uint64(math.MaxUint64-1))
	}
	// Offsets never wrap: past the addressable space they pin to MaxUint64.
	if got := c.Advance(10).Offset; got != math.MaxUint64 {
		t.Errorf("Advance(10) = %d, want saturation at MaxUint64", got)
	}
	sat := spanjoin.Cursor{Offset: math.MaxUint64}
	if got := sat.Advance(1).Offset; got != math.MaxUint64 {
		t.Errorf("saturated Advance(1) = %d, want MaxUint64", got)
	}
}

// TestEvalCursorMatchesSpannerPage drives pagination through cursor
// tokens (parse → eval → advance → re-encode, like a client would) and
// checks every page is identical to addressing the same window directly
// with Page on an Of target.
func TestEvalCursorMatchesSpannerPage(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(3))
	const pattern = `.*x{mail}.*`
	sp, err := spanjoin.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const limit = 2
	cur := spanjoin.Cursor{Mode: "anchor", Pattern: pattern}
	var got []spanjoin.CorpusMatch
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("pagination did not terminate")
		}
		// Round-trip through the token each page, as a stateless client would.
		cur, err = spanjoin.ParseCursor(cur.Token())
		if err != nil {
			t.Fatal(err)
		}
		page, next, more, err := c.EvalCursor(ctx, cur, limit)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.Page(ctx, spanjoin.Of(sp), cur.Offset, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Matches) != len(ref.Matches) {
			t.Fatalf("page at %d: %d matches, Page(Of(sp)) %d", cur.Offset, len(page.Matches), len(ref.Matches))
		}
		for i := range page.Matches {
			if page.Matches[i].Doc != ref.Matches[i].Doc || page.Matches[i].Match.String() != ref.Matches[i].Match.String() {
				t.Fatalf("page at %d, row %d: %v != %v", cur.Offset, i, page.Matches[i], ref.Matches[i])
			}
		}
		got = append(got, page.Matches...)
		if !more {
			break
		}
		cur = next
	}
	// The concatenation of all pages is the whole result sequence.
	total, err := c.Count(ctx, spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := total.Uint64(); !ok || u != uint64(len(got)) {
		t.Fatalf("paged out %d matches, Count says %v", len(got), total)
	}
}

// TestEvalCursorEmptyModeToken: EvalCursor resumes an empty mode as
// "anchor", and the cursor it returns must say so — its token has to
// parse and page on to the same results as an explicit anchored cursor.
func TestEvalCursorEmptyModeToken(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	const pattern = `.*x{mail}.*`
	ctx := context.Background()
	_, next, more, err := c.EvalCursor(ctx, spanjoin.Cursor{Pattern: pattern}, 1)
	if err != nil || !more {
		t.Fatalf("first page: more=%v, %v", more, err)
	}
	parsed, err := spanjoin.ParseCursor(next.Token())
	if err != nil {
		t.Fatalf("token of the returned cursor %+v: %v", next, err)
	}
	if want := (spanjoin.Cursor{Mode: "anchor", Pattern: pattern, Offset: 1}); parsed != want {
		t.Fatalf("returned cursor %+v, want %+v", parsed, want)
	}
}

// TestEvalPageOffsetBoundary is the satellite regression test: offsets
// at and near math.MaxUint64 — where offset+limit would wrap a uint64 —
// must come back as exhausted pages, never as a wrapped window serving
// rank-0 results.
func TestEvalPageOffsetBoundary(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	const pattern = `.*x{mail}.*`
	ctx := context.Background()
	total, err := c.Count(ctx, spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	tu, ok := total.Uint64()
	if !ok || tu == 0 {
		t.Fatalf("unexpected total %v", total)
	}
	for _, offset := range []uint64{tu, tu + 1, math.MaxUint64 - 1, math.MaxUint64} {
		for _, limit := range []int{1, 7, 1 << 20} {
			page, err := c.Page(ctx, spanjoin.Anchored(pattern), offset, limit)
			if err != nil {
				t.Fatalf("offset %d limit %d: %v", offset, limit, err)
			}
			if len(page.Matches) != 0 {
				t.Fatalf("offset %d limit %d: got %d matches, want exhausted page", offset, limit, len(page.Matches))
			}
			if u, okT := page.Total.Uint64(); !okT || u != tu {
				t.Fatalf("offset %d: total %v, want %d", offset, page.Total, tu)
			}
		}
	}
	// The cursor layer agrees: a saturated cursor is terminal.
	page, next, more, err := c.EvalCursor(ctx, spanjoin.Cursor{Mode: "anchor", Pattern: pattern, Offset: math.MaxUint64}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Matches) != 0 || more {
		t.Fatalf("cursor at MaxUint64: %d matches, more=%v; want empty terminal page", len(page.Matches), more)
	}
	if next.Offset != math.MaxUint64 {
		t.Fatalf("cursor advanced from MaxUint64 to %d", next.Offset)
	}
}

func TestCorpusSampleUniform(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	const pattern = `.*x{mail}.*`
	ctx := context.Background()
	ms, err := c.Sample(ctx, spanjoin.Anchored(pattern), rand.New(rand.NewSource(42)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 64 {
		t.Fatalf("got %d samples, want 64", len(ms))
	}
	// Every draw is a genuine match of its document.
	for _, m := range ms {
		s, ok := m.Match.Substr("x")
		if !ok || s != "mail" {
			t.Fatalf("sample bound x=%q ok=%v, want \"mail\"", s, ok)
		}
		if text, ok := c.Doc(m.Doc); !ok || !strings.Contains(text, "mail") {
			t.Fatalf("sample from doc %d (%q), which has no match", m.Doc, text)
		}
	}
	// Same seed, same draws — the contract /sample's seed parameter
	// exposes over the wire.
	again, err := c.Sample(ctx, spanjoin.Anchored(pattern), rand.New(rand.NewSource(42)), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if ms[i].Doc != again[i].Doc || ms[i].Match.String() != again[i].Match.String() {
			t.Fatalf("draw %d differs under the same seed", i)
		}
	}
	// Doc 2 ("aa mail mail aa") holds 2 of the corpus's matches; with 64
	// draws over a handful of matches, every matched document should be
	// hit at least once (the chance of missing one is astronomically
	// small for a uniform sampler).
	seen := map[spanjoin.DocID]bool{}
	for _, m := range ms {
		seen[m.Doc] = true
	}
	n, _ := c.Count(ctx, spanjoin.Anchored(pattern))
	if u, _ := n.Uint64(); u >= 3 && len(seen) < 3 {
		t.Errorf("64 uniform draws hit only docs %v", seen)
	}
	// k <= 0 and empty result sets are nil, not errors. A k <= 0 returns
	// before the target is resolved: no cache lookup, and no error even
	// for a pattern that does not compile or an empty target.
	st := c.CacheStats()
	for _, k := range []int{0, -1} {
		for _, target := range []spanjoin.Target{spanjoin.Anchored(pattern), spanjoin.Search(`x{`), {}} {
			if ms, err := c.Sample(ctx, target, rand.New(rand.NewSource(1)), k); err != nil || ms != nil {
				t.Errorf("k=%d: got %v, %v", k, ms, err)
			}
		}
	}
	if got := c.CacheStats(); got.Hits+got.Misses != st.Hits+st.Misses {
		t.Errorf("k <= 0 reached the compile cache: %+v, then %+v", st, got)
	}
	if ms, err := c.Sample(ctx, spanjoin.Anchored(`.*x{zzzz}.*`), rand.New(rand.NewSource(1)), 5); err != nil || ms != nil {
		t.Errorf("no matches: got %v, %v", ms, err)
	}
}
