package main

import (
	"fmt"
	"strings"
	"time"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/reductions"
	"spanjoin/internal/strequal"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
)

func init() {
	register("E5", "Thm 3.1 — NP-hardness on a single-character string: SAT via regex CQs", runE5)
	register("E6", "Thm 3.2 — k-clique via gamma-acyclic regex CQs", runE6)
	register("E8", "Thm 5.4 / Cor 5.5 — string-equality selections: A_eq size and evaluation", runE8)
}

func runE5(quick bool) {
	fmt.Println("Random 3CNF at clause ratio m = 4.2n, solved by evaluating the Thm 3.1 regex CQ")
	fmt.Println("on the string \"a\" (automata plan), vs exhaustive search. Claim: the reduction is")
	fmt.Println("correct (agreement + verified witnesses) and both scale exponentially in n —")
	fmt.Println("the combined complexity of Boolean regex CQs is NP-complete even for |s| = 1.")
	fmt.Println()
	ns := []int{6, 8, 10, 12}
	if quick {
		ns = ns[:3]
	}
	t := newTable("n vars", "m clauses", "sat", "spanner eval", "brute force", "agree")
	for _, n := range ns {
		m := int(4.2 * float64(n))
		cnf := workload.RandomCNF(workload.Rand(int64(100+n)), n, m)
		var ok bool
		d := timeIt(func() {
			var err error
			_, ok, err = reductions.Satisfiable(cnf, core.Options{Strategy: core.Automata})
			if err != nil {
				panic(err)
			}
		})
		var bfOK bool
		db := timeIt(func() { _, bfOK = reductions.BruteForceSAT(cnf) })
		t.add(n, m, ok, d, db, ok == bfOK)
	}
	t.print()
}

func runE6(quick bool) {
	fmt.Println("k-clique on G(n, 0.5) via the gamma-acyclic regex CQ of Thm 3.2 (canonical plan),")
	fmt.Println("vs backtracking search. Claim: the reduction is correct and the spanner cost grows")
	fmt.Println("with both k (W[1]-hardness in #atoms/#variables) and the graph size.")
	fmt.Println()
	type cfg struct{ n, k int }
	// For k = 4 the γ atom binds 12 variables and its materialized relation
	// has |E|^6 tuples, so the graphs stay small (the W[1]-hardness in the
	// variable count is the point).
	cfgs := []cfg{{8, 3}, {10, 3}, {12, 3}, {6, 4}, {7, 4}}
	if quick {
		cfgs = cfgs[:3]
	}
	t := newTable("n", "k", "|s|", "found", "spanner eval", "brute force", "agree")
	for _, c := range cfgs {
		g := workload.RandomGraph(workload.Rand(int64(200+c.n*10+c.k)), c.n, 0.5)
		s := reductions.CliqueString(g)
		var ok bool
		d := timeIt(func() {
			var err error
			_, ok, err = reductions.FindClique(g, c.k, core.Options{Strategy: core.Canonical})
			if err != nil {
				panic(err)
			}
		})
		var bfOK bool
		db := timeIt(func() { _, bfOK = reductions.BruteForceClique(g, c.k) })
		t.add(c.n, c.k, len(s), ok, d, db, ok == bfOK)
	}
	t.print()
}

func runE8(quick bool) {
	fmt.Println("A_eq construction (Thm 5.4) on the worst-case string s = aⁿ: states should grow")
	fmt.Println("~cubically in |s| (O(N^{3k+1}) for k selections).")
	fmt.Println()
	ns := []int{8, 16, 32}
	if !quick {
		ns = append(ns, 48)
	}
	t := newTable("|s|", "A_eq states", "states/N³", "build")
	// The end-to-end join below is the expensive part; cap its sweep.
	endToEnd := []int{8, 12, 16}
	if !quick {
		endToEnd = append(endToEnd, 24)
	}
	for _, n := range ns {
		s := ""
		for i := 0; i < n; i++ {
			s += "a"
		}
		var a *vsa.VSA
		d := timeIt(func() {
			var err error
			a, err = strequal.Build(s, "x", "y")
			if err != nil {
				panic(err)
			}
		})
		t.add(n, a.NumStates(), float64(a.NumStates())/float64(n*n*n), d)
	}
	t.print()

	fmt.Println()
	fmt.Println("End-to-end ζ=-selection on `.*x{a+}.*y{a+}.*` (Cor 5.5: polynomial delay for")
	fmt.Println("bounded m): runtime compilation + full enumeration, m = 1 equality.")
	fmt.Println()
	t2 := newTable("|s|", "answers", "compile+join", "enumerate", "total")
	for _, n := range endToEnd {
		s := workload.RepetitiveString(workload.Rand(5), n)
		base, err := core.NewAtom("base", ".*x{a+}.*y{a+}.*")
		if err != nil {
			panic(err)
		}
		var joined *vsa.VSA
		dj := timeIt(func() {
			joined, err = strequal.Apply(base.Auto, s, [][2]string{{"x", "y"}})
			if err != nil {
				panic(err)
			}
		})
		var count int
		de := timeIt(func() {
			// The ζ=-compiled automaton exists for this document only, so
			// its plan's kernels and build cache are paid here, as on the
			// engine's per-document paths.
			e, err := enum.Prepare(joined, s)
			if err != nil {
				panic(err)
			}
			// Drain one tuple at a time rather than Count (the ranked DP
			// would skip the enumeration E8 times) or All (which would add
			// O(output) retention to the measured region).
			count = 0
			for {
				if _, ok := e.Next(); !ok {
					break
				}
				count++
			}
		})
		if want := e8Answers(s); count != want {
			panic(fmt.Sprintf("E8: |s| = %d enumerates %d answers, brute force finds %d", n, count, want))
		}
		t2.add(n, count, dj, de, time.Duration(dj+de))
	}
	t2.print()
}

// e8Answers counts the answers of .*x{a+}.*y{a+}.* under x = y on s by
// brute force: pairs of equal, non-empty runs of a's, x's ending at or
// before y's start.
func e8Answers(s string) int {
	allA := func(w string) bool { return strings.Trim(w, "a") == "" }
	n := 0
	for i := range len(s) {
		for j := i + 1; j <= len(s) && allA(s[i:j]); j++ {
			for k := j; k+j-i <= len(s); k++ {
				if allA(s[k : k+j-i]) {
					n++
				}
			}
		}
	}
	return n
}
