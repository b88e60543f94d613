package main

import (
	"fmt"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
	"spanjoin/internal/workload"
)

func init() {
	register("EB", "engine — byte-class compiled transition matrices: graph build through cached level steps", runEB)
}

// ebWorkload is one pattern family of the EB sweep. docAlpha is the byte
// set documents draw from (chosen so both live and multi-class bytes
// occur); the E1 shape is the acceptance workload.
type ebWorkload struct {
	name     string
	pattern  string
	docAlpha string
}

// ebDoc returns a seeded random document over the workload's alphabet.
func ebDoc(r interface{ Intn(int) int }, alpha string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func runEB(quick bool) {
	fmt.Println("Per-document graph construction through the byte-class table, the one build path:")
	fmt.Println("a single-use plan (enum.Prepare(a, doc) per document: trim, kernels — letters,")
	fmt.Println("transition table and its closures — and a cold build cache, what a per-document automaton")
	fmt.Println("such as Thm 5.4's A_eq pays) vs Reset(doc) on a shared plan whose arenas and build")
	fmt.Println("cache are warm (each level one lookup per pass), which is what the compiled-query")
	fmt.Println("cache gives every document of a corpus query after the first.")
	fmt.Println()

	workloads := []ebWorkload{
		{"E1 shape", ".*x{a+}.*y{b+}.*", "ab"},
		{"byte classes", "[^0-9]*x{[0-9]+}[ :=]y{[a-z]+}.*", "0123456789 :=abcxyz"},
		{"dense Σ", "x{.*}y{.*}", "abcdefgh"},
	}
	sizes := []int{128, 512, 2048}
	if quick {
		sizes = sizes[:2]
	}

	t := newTable("workload", "byte classes", "|s|",
		"single-use ns/op", "shared ns/op", "speedup",
		"single-use allocs/op", "shared allocs/op")
	for wi, w := range workloads {
		a := rgx.MustCompilePattern(w.pattern)
		p, err := enum.NewPlan(a)
		if err != nil {
			panic(err)
		}
		for _, n := range sizes {
			doc := ebDoc(workload.Rand(int64(900+10*wi)), w.docAlpha, n)

			e := p.NewEnumerator()
			e.Reset(doc) // warm the arenas: measure steady-state builds
			shared := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Reset(doc)
				}
			})

			single := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := enum.Prepare(a, doc); err != nil {
						panic(err)
					}
				}
			})

			speedup := float64(single.NsPerOp()) / float64(shared.NsPerOp())
			t.add(w.name, p.ByteClasses(), n,
				single.NsPerOp(), shared.NsPerOp(), fmt.Sprintf("%.2fx", speedup),
				single.AllocsPerOp(), shared.AllocsPerOp())
		}
	}
	t.print()
}
