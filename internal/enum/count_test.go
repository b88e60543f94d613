package enum

import (
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/oracle"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// rankCount is the DAG reference CountDoc must match: a fresh graph build
// and ranked.Build.
func rankCount(t *testing.T, p *Plan, s string) ranked.Count {
	t.Helper()
	return p.Prepare(s).Rank().Count()
}

// TestCountDocLengths: one enumerator counts documents of shrinking, then
// growing length on a DFA that every earlier document warmed, and every
// count equals the DAG's. Then each of 60 random functional automata
// counts a document sequence — "", a dead byte, a document with no match
// — through one enumerator, checked against refPrepare's drains.
func TestCountDocLengths(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, pat := range []string{".*x{a+}.*y{b+}.*", "(a|b)*x{a+}(a|b)*", "x{.*}y{.*}"} {
		p, err := NewPlan(rgx.MustCompilePattern(pat))
		if err != nil {
			t.Fatal(err)
		}
		e := p.NewEnumerator()
		for _, n := range []int{300, 40, 7, 1, 0, 2, 64, 700} {
			doc := randDoc(r, n)
			if n == 40 {
				doc = doc[:20] + "c" + doc[21:] // a byte (a|b)* rejects
			}
			got, want := e.CountDoc(doc), rankCount(t, p, doc)
			if got.String() != want.String() {
				t.Fatalf("%s on a %d-byte doc: CountDoc = %v, Rank().Count() = %v", pat, n, got, want)
			}
		}
	}

	vars := span.NewVarList("x", "y")
	docs := []string{"abba", "", "abcab", "c", "a", "bbbbbb", "ab", "aab", "", "abab"}
	nonzero, unmatched := 0, 0
	for i := 0; i < 60; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 14)
		p, err := NewPlan(a)
		if err != nil {
			t.Fatal(err)
		}
		e := p.NewEnumerator()
		for _, doc := range docs {
			ref, err := refPrepare(a, doc)
			if err != nil {
				t.Fatal(err)
			}
			want := len(ref.all())
			if got, ok := e.CountDoc(doc).Uint64(); !ok || got != uint64(want) {
				t.Fatalf("automaton %d on %q: CountDoc = %d, reference drain = %d", i, doc, got, want)
			}
			if want > 0 {
				nonzero++
			} else if !strings.Contains(doc, "c") {
				unmatched++
			}
		}
	}
	if nonzero == 0 || unmatched == 0 {
		t.Fatalf("%d counts matched, %d {a,b} documents did not; the case needs both", nonzero, unmatched)
	}
}

// TestCountDocWideLevel: twelve sequential variables put 2·12+1 letters
// on the middle levels, so one level holds more DFA states than a fresh
// interner's slots and the interner rehashes mid-level.
func TestCountDocWideLevel(t *testing.T) {
	const k, m = 12, 40
	var sb strings.Builder
	sb.WriteString("a*")
	for i := 1; i <= k; i++ {
		sb.WriteString("x" + string(rune('a'+i-1)) + "{a+}a*")
	}
	p, err := NewPlan(rgx.MustCompilePattern(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Repeat("a", m)
	ref := p.Prepare(doc)
	widest := 0
	for _, lvl := range ref.Levels() {
		letters := map[int32]bool{}
		for _, nd := range lvl {
			letters[nd.Letter] = true
		}
		widest = max(widest, len(letters))
	}
	// Every set of a level is one letter's, so a level has at least as
	// many sets as its nodes have letters.
	if widest <= subsetTableInit {
		t.Fatalf("widest level has %d letters; the case needs more than %d", widest, subsetTableInit)
	}
	e := p.NewEnumerator()
	if got, want := e.CountDoc(doc), ref.Rank().Count(); got.String() != want.String() {
		t.Fatalf("CountDoc = %v, Rank().Count() = %v", got, want)
	}
}

// TestSubsetTable pins the count DFA's interner on its own: distinct sets
// get distinct ids through several rehashes, an equal set gets the id it
// already has, and a reset starts empty.
func TestSubsetTable(t *testing.T) {
	var tb subsetTable
	tb.reset()
	const sets = 1000
	set := func(i int32) []int32 { return []int32{i, i + 1 + i%3, 3*i + 7}[:1+i%3] }
	for round := 0; round < 2; round++ {
		for i := int32(0); i < sets; i++ {
			id, added := tb.intern(set(i))
			if id != i || added != (round == 0) {
				t.Fatalf("round %d: set %d interned as id %d (added %v)", round, i, id, added)
			}
		}
	}
	if tb.len() != sets || len(tb.slots) <= subsetTableInit {
		t.Fatalf("%d sets in %d slots, want %d sets past a rehash", tb.len(), len(tb.slots), sets)
	}
	for i := int32(0); i < sets; i++ {
		if !slices.Equal(tb.key(i), set(i)) {
			t.Fatalf("set %d holds %v, want %v", i, tb.key(i), set(i))
		}
	}
	if id, added := tb.intern(nil); id != sets || !added {
		t.Fatalf("the empty set interned as id %d (added %v), want a new id %d", id, added, sets)
	}
	tb.reset()
	if tb.len() != 0 || len(tb.keys) != 0 {
		t.Fatal("reset left sets behind")
	}
	for _, sl := range tb.slots {
		if sl != 0 {
			t.Fatal("reset left an occupied slot")
		}
	}
	if id, added := tb.intern([]int32{5}); id != 0 || !added || !slices.Equal(tb.key(0), []int32{5}) {
		t.Fatalf("first set after reset: id %d (added %v), key %v", id, added, tb.key(0))
	}
}

// TestCountDocAllocsSteadyState: on a warm DFA a count allocates nothing —
// no graph, no DAG, no per-level tables.
func TestCountDocAllocsSteadyState(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	s := randDoc(rand.New(rand.NewSource(5)), 256)
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEnumerator()
	e.SetInterrupt(func() bool { return false })
	if got, want := e.CountDoc(s), rankCount(t, p, s); got.String() != want.String() || got.IsZero() {
		t.Fatalf("CountDoc = %v, Rank().Count() = %v", got, want)
	}
	// This assertion gates the count kernel and its forward pass.
	//
	//spanjoin:allocgate spanjoin/internal/enum.(*Enumerator).CountDoc spanjoin/internal/enum.(*countDFA).count
	if avg := alloctest.Run(t, 20, func() { e.CountDoc(s) }); avg != 0 {
		t.Fatalf("CountDoc allocates %.1f per document, want 0", avg)
	}
}

// TestCountDocDFAFlush: (a|b)*a followed by twelve (a|b) has 2¹³ reachable
// subsets, and random 4 KiB {a,b} documents visit thousands of them — more
// than the DFA's cache holds. Each count flushes and must still equal the
// DAG's, through both flush kinds: the plain pattern's levels are single
// states, so its flushes empty both layers, while (a|b)*x{a}… needs 15
// states but thousands of levels, so its flushes empty the level layer
// only. Last, an exact recount (countExact) flushes mid-document.
func TestCountDocDFAFlush(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tail := strings.Repeat("(a|b)", 12)
	for _, pat := range []string{"(a|b)*a" + tail, "(a|b)*x{a}" + tail, "(a|b)*x{a}(a|b)*a" + tail} {
		p, err := NewPlan(rgx.MustCompilePattern(pat))
		if err != nil {
			t.Fatal(err)
		}
		e := p.NewEnumerator()
		flushes := dfaFlushes.Load()
		nonzero := 0
		for i := 0; i < 6; i++ {
			doc := randDoc(r, 4096)
			got, want := e.CountDoc(doc), rankCount(t, p, doc)
			if got.String() != want.String() {
				t.Fatalf("%s on doc %d: CountDoc = %v, Rank().Count() = %v", pat, i, got, want)
			}
			if !got.IsZero() {
				nonzero++
			}
		}
		if dfaFlushes.Load() == flushes {
			t.Fatalf("%s: six 4 KiB documents never flushed the DFA", pat)
		}
		if nonzero == 0 || nonzero == 6 {
			t.Fatalf("%s: %d of 6 documents match; the case needs both kinds", pat, nonzero)
		}
	}

	const k, m = 12, 200
	var sb strings.Builder
	sb.WriteString("a*")
	for i := 1; i <= k; i++ {
		sb.WriteString("x" + string(rune('a'+i-1)) + "{a+}a*")
	}
	p, err := NewPlan(rgx.MustCompilePattern(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Repeat("a", m)
	tt := p.kernels()
	d := p.takeDFA()
	d.limit, d.full = 0, true
	flushes := dfaFlushes.Load()
	got := d.countExact(p.NewEnumerator(), doc, tt)
	if want := new(big.Int).Binomial(m+k, 2*k); got.BigInt().Cmp(want) != 0 {
		t.Fatalf("flushed exact recount = %v, want C(%d,%d) = %v", got, m+k, 2*k, want)
	}
	if dfaFlushes.Load() == flushes {
		t.Fatal("the exact recount never flushed")
	}
}

// TestCountDocMemoryBounded: the 1,037-state automaton of .*x{a¹⁰²⁴}.*
// holds a thousand DFA states per level on a⁴⁰⁹⁶. A count's memory is its
// DFA's, bounded by a constant whatever the document: the warm DFA stays
// pooled within maxDFABytes, and a warm count allocates (next to) nothing.
func TestCountDocMemoryBounded(t *testing.T) {
	p, err := NewPlan(rgx.MustCompilePattern(".*x{" + strings.Repeat("a", 1024) + "}.*"))
	if err != nil {
		t.Fatal(err)
	}
	if n := p.auto.NumStates(); n != 1037 {
		t.Fatalf("automaton has %d states, want 1037", n)
	}
	doc := strings.Repeat("a", 4096)
	e := p.NewEnumerator()
	drops := dfaDrops.Load()
	for range 2 {
		if got, ok := e.CountDoc(doc).Uint64(); !ok || got != 4096-1024+1 {
			t.Fatalf("CountDoc = %d, want %d", got, 4096-1024+1)
		}
	}
	if dfaDrops.Load() != drops || len(p.dfas.items) != 1 {
		t.Fatalf("the DFA was dropped (%d drops, %d pooled)", dfaDrops.Load()-drops, len(p.dfas.items))
	}
	if b := p.dfas.items[0].retainedBytes(); b > maxDFABytes {
		t.Fatalf("the pooled DFA retains %d bytes, over its %d bound", b, maxDFABytes)
	}
	if b := alloctest.Bytes(t, 3, func() { e.CountDoc(doc) }); b > 1024 {
		t.Fatalf("a warm count allocates %.0f bytes, want ≤ 1 KiB", b)
	}
}

// TestCountDocLevelBuffersGrowGeometrically: on a⁴⁰⁹⁶, .*x{aᵏ}.* widens
// its count levels by one DFA state a byte, up to about k. At k = 2,048
// the DFA, level buffers included, stays within maxDFABytes, so it is
// pooled and a warm count allocates nothing. At k = 4,096 the DFA outgrows
// the bound and is dropped after every count, so every count starts on
// empty level buffers; grown geometrically they cost O(k) bytes, and the
// whole count, DFA included, allocates under 4 MiB (72 MB when they grew
// to the exact width at every byte).
func TestCountDocLevelBuffersGrowGeometrically(t *testing.T) {
	doc := strings.Repeat("a", 4096)
	plan := func(k int) (*Plan, *Enumerator) {
		p, err := NewPlan(rgx.MustCompilePattern(".*x{" + strings.Repeat("a", k) + "}.*"))
		if err != nil {
			t.Fatal(err)
		}
		return p, p.NewEnumerator()
	}
	count := func(e *Enumerator, k int) {
		if got, ok := e.CountDoc(doc).Uint64(); !ok || got != uint64(len(doc)-k+1) {
			t.Fatalf("k = %d: CountDoc = %d, want %d", k, got, len(doc)-k+1)
		}
	}

	p, e := plan(2048)
	count(e, 2048)
	drops := dfaDrops.Load()
	if b := alloctest.Bytes(t, 1, func() { count(e, 2048) }); b != 0 {
		t.Fatalf("k = 2048: a warm count allocates %.0f bytes, want 0", b)
	}
	if dfaDrops.Load() != drops || len(p.dfas.items) != 1 {
		t.Fatal("k = 2048: the DFA was dropped")
	}

	p, e = plan(4096)
	p.kernels()
	drops = dfaDrops.Load()
	if b := alloctest.Bytes(t, 1, func() { count(e, 4096) }); b >= 4<<20 {
		t.Fatalf("k = 4096: a count allocates %.0f bytes, want under 4 MiB", b)
	}
	if dfaDrops.Load() != drops+1 || len(p.dfas.items) != 0 {
		t.Fatal("k = 4096: the DFA was pooled; the case needs one past its bound")
	}
}
