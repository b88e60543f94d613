package enum_test

import (
	"fmt"
	"strings"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/workload"
)

func BenchmarkPrepare(b *testing.B) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	s := workload.RandomString(workload.Rand(1), 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.Prepare(a, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNextTuple(b *testing.B) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	s := workload.RandomString(workload.Rand(1), 512, 2)
	e, err := enum.Prepare(a, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Next(); !ok {
			b.StopTimer()
			e, _ = enum.Prepare(a, s)
			b.StartTimer()
		}
	}
}

// BenchmarkMembershipVsEnumeration: deciding one tuple with the plan's
// membership test should not depend on the result count, while
// enumerating every result on the same warm plan does.
func BenchmarkMembershipVsEnumeration(b *testing.B) {
	p, err := enum.NewPlan(rgx.MustCompilePattern(".*x{a+}.*"))
	if err != nil {
		b.Fatal(err)
	}
	s := workload.RandomString(workload.Rand(2), 512, 2)
	tu, ok := p.Prepare(s).Next()
	if !ok {
		b.Skip("no tuple")
	}
	b.Run("enumerate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Prepare(s).All()
		}
	})
	b.Run("membership-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !p.Accepts(s, tu) {
				b.Fatal("a result is rejected")
			}
		}
	})
}

// BenchmarkCountDoc compares the two ways to count one document's results
// — the count kernel (CountDoc: one pass over the plan's count DFA) and a
// graph build followed by the ranked DAG — on a search pattern over a 4 KiB
// text-like document. Then it times the kernel on four shapes hostile to a
// subset construction: the classic 2¹³-subset blow-up over random {a,b}
// text, the same with a capture, two unanchored captures, and a 1,037-state
// automaton whose levels hold a thousand sets each. Every kernel case is
// timed on a DFA that one count before the loop warmed.
func BenchmarkCountDoc(b *testing.B) {
	p, err := enum.NewPlan(rgx.MustCompilePattern(`.*mail{[a-z]+@[a-z]+\.[a-z]+}.*`))
	if err != nil {
		b.Fatal(err)
	}
	s := workload.RandomString(workload.Rand(3), 4096, 26) + " bob@example.org "
	e := p.NewEnumerator()
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		e.CountDoc(s)
		for b.Loop() {
			e.CountDoc(s)
		}
	})
	b.Run("graph+dag", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			e.Reset(s)
			e.Rank().Count()
		}
	})
	ab := workload.RandomString(workload.Rand(4), 4096, 2)
	tail := strings.Repeat("(a|b)", 12)
	for _, h := range []struct{ name, pattern, doc string }{
		{"blowup", "(a|b)*a" + tail, ab},
		{"blowup-capture", "(a|b)*x{a}" + tail, ab},
		{"two-captures", ".*x{a+}.*y{b+}.*", ab},
		{"wide-automaton", ".*x{" + strings.Repeat("a", 1024) + "}.*", strings.Repeat("a", 4096)},
	} {
		p, err := enum.NewPlan(rgx.MustCompilePattern(h.pattern))
		if err != nil {
			b.Fatal(err)
		}
		e := p.NewEnumerator()
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			e.CountDoc(h.doc)
			for b.Loop() {
				e.CountDoc(h.doc)
			}
		})
	}
}

// addressText returns about n bytes of the sentences e2ebench's corpora
// are made of — people, street addresses, mail addresses — ending with the
// sentence "alice visited Kerkstraat 12, 1000 Gent.".
func addressText(n int) string {
	r := workload.Rand(5)
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	var sb strings.Builder
	for sb.Len() < n-40 {
		switch r.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "%s %s %s %d, %d %s. ", pick("bob", "carol", "dave"), pick("visited", "called"),
				pick("Molenstraat", "Dorpstraat", "Veldstraat"), 1+r.Intn(999), 1000+r.Intn(9000), pick("Brugge", "Leuven"))
		case 1:
			fmt.Fprintf(&sb, "%s wrote to %s at %s@%s. ", pick("erin", "frank"), pick("grace", "heidi"), pick("bob", "dave"), pick("mail.be", "web.com"))
		default:
			fmt.Fprintf(&sb, "the %s in %s was %s. ", pick("report", "parcel", "lease"), pick("Namur", "Mons"), pick("late", "signed"))
		}
	}
	return sb.String() + "alice visited Kerkstraat 12, 1000 Gent."
}

// BenchmarkWindowBuild times one layered-graph build as a page window runs
// it: a fresh enumerator over the plan, Reset, Release. The main case is
// shaped like e2ebench's adhoc lookups, a search-mode street-address
// pattern over 740 bytes of address text it matches once, timed on a fresh
// plan per build (cold: the plan, its transition table and every level
// are new) and on one plan reused (warm). Then it times warm builds on
// BenchmarkCountDoc's shapes hostile to a subset construction; the wide
// automaton is at a quarter of the count case's size (.*x{a^256}.* on
// a^1024), because the graph of the full-size case holds three million
// nodes.
func BenchmarkWindowBuild(b *testing.B) {
	adhoc := rgx.MustCompilePattern(`.*(s{Kerkstraat 12}, z{[0-9][0-9][0-9][0-9]} c{[A-Z][a-z]+}).*`)
	doc := addressText(740)
	build := func(b *testing.B, p *enum.Plan, doc string) {
		e := p.NewEnumerator()
		e.Reset(doc)
		if e.Empty() {
			b.Fatal("the document has no results")
		}
		e.Release()
	}
	b.Run("adhoc/cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			p, err := enum.NewPlan(adhoc)
			if err != nil {
				b.Fatal(err)
			}
			build(b, p, doc)
		}
	})
	p, err := enum.NewPlan(adhoc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("adhoc/warm", func(b *testing.B) {
		b.ReportAllocs()
		build(b, p, doc)
		for b.Loop() {
			build(b, p, doc)
		}
	})
	ab := workload.RandomString(workload.Rand(4), 4096, 2)
	ab = ab[:len(ab)-13] + "a" + ab[len(ab)-12:] // every shape matches
	tail := strings.Repeat("(a|b)", 12)
	for _, h := range []struct{ name, pattern, doc string }{
		{"blowup", "(a|b)*a" + tail, ab},
		{"blowup-capture", "(a|b)*x{a}" + tail, ab},
		{"two-captures", ".*x{a+}.*y{b+}.*", ab},
		{"wide-automaton", ".*x{" + strings.Repeat("a", 256) + "}.*", strings.Repeat("a", 1024)},
	} {
		p, err := enum.NewPlan(rgx.MustCompilePattern(h.pattern))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			build(b, p, h.doc)
			for b.Loop() {
				build(b, p, h.doc)
			}
		})
	}
}
