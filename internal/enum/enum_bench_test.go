package enum_test

import (
	"strings"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
)

func vsaAccepts(a *vsa.VSA, s string, vars span.VarList, t span.Tuple) (bool, error) {
	return vsa.AcceptsTuple(a, s, vars, t)
}

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

func BenchmarkMembershipVsEnumeration(b *testing.B) {
	// Deciding one tuple should not depend on the result count.
	a := rgx.MustCompilePattern(".*x{a+}.*")
	s := workload.RandomString(workload.Rand(2), 512, 2)
	e, err := enum.Prepare(a, s)
	if err != nil {
		b.Fatal(err)
	}
	tu, ok := e.Next()
	if !ok {
		b.Skip("no tuple")
	}
	b.Run("enumerate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := enum.Eval(a, s)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("membership-one", func(b *testing.B) {
		vars := e.Vars()
		for i := 0; i < b.N; i++ {
			ok, err := vsaAccepts(a, s, vars, tu)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// BenchmarkCountDoc compares the two ways to count one document's results
// — the count kernel (CountDoc: one pass over the plan's count DFA) and a
// graph build followed by the ranked DAG — on a search pattern over a 4 KiB
// text-like document. Then it times the kernel on four shapes hostile to a
// subset construction: the classic 2¹³-subset blow-up over random {a,b}
// text, the same with a capture, two unanchored captures, and a 2,060-state
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
