package enum

import (
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/bitset"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
)

// rankCount is the DAG reference CountDoc must match: a fresh graph build
// and ranked.Build.
func rankCount(t *testing.T, p *Plan, s string) ranked.Count {
	t.Helper()
	return p.Prepare(s).Rank().Count()
}

// TestCountDocLengths: one enumerator counts documents of shrinking, then
// growing length — the pooled tables and sweep matrices are resliced,
// never stale — and every count equals the DAG's.
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
}

// TestCountDocWideLevel: twelve sequential variables put 2·12+1 letters
// on the middle levels, so a level holds more sets than a fresh table's
// slots and the table rehashes mid-level.
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

// TestSubsetTable pins the table on its own: distinct sets get distinct
// entries through several rehashes, equal sets add their counts, and a
// reset to another key width starts empty.
func TestSubsetTable(t *testing.T) {
	var tb subsetTable
	tb.reset(2)
	const sets = 1000
	for round := uint64(1); round <= 2; round++ {
		for i := uint64(0); i < sets; i++ {
			key := tb.push()
			key[0], key[1] = i, i*7
			tb.add(ranked.CountOf(round))
		}
	}
	if len(tb.counts) != sets {
		t.Fatalf("%d entries, want %d", len(tb.counts), sets)
	}
	for k := range tb.counts {
		key := tb.key(k)
		if key[1] != key[0]*7 {
			t.Fatalf("entry %d holds a corrupted key %v", k, key)
		}
		if u, _ := tb.counts[k].Uint64(); u != 3 {
			t.Fatalf("entry %d count = %d, want 1+2", k, u)
		}
	}
	tb.reset(1)
	if len(tb.counts) != 0 || len(tb.keys) != 0 {
		t.Fatal("reset left entries behind")
	}
	for _, sl := range tb.slots {
		if sl != 0 {
			t.Fatal("reset left an occupied slot")
		}
	}
	key := tb.push()
	key[0] = 5
	tb.add(ranked.CountOf(4))
	if !tb.key(0).Equal(bitset.Row{5}) {
		t.Fatalf("key after reset = %v", tb.key(0))
	}
}

// TestCountDocAllocsSteadyState: with its pooled scratch warm, a count
// allocates nothing — no graph, no DAG, no per-level tables.
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
	// This assertion gates the count kernel, the prune it shares with the
	// matrix build, and its level tables.
	//
	//spanjoin:allocgate spanjoin/internal/enum.(*Enumerator).CountDoc spanjoin/internal/enum.(*Enumerator).sweepAlive spanjoin/internal/enum.(*Enumerator).splitByLetter spanjoin/internal/enum.(*subsetTable).add
	if avg := alloctest.Run(t, 20, func() { e.CountDoc(s) }); avg != 0 {
		t.Fatalf("CountDoc allocates %.1f per document, want 0", avg)
	}
}
