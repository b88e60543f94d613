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
	fmt.Println("Per-document graph construction: the table build (Prepare/Reset on a shared Plan;")
	fmt.Println("each level is one lookup per pass in the plan's build cache, computed from the")
	fmt.Println("byte-class matrices the first time it occurs) vs the preserved per-transition")
	fmt.Println("reference build (walk charAdj, test Class.Contains per transition, OR closure rows")
	fmt.Println("per hit). Both measured as steady-state Reset(doc), i.e. pure build time into warm")
	fmt.Println("arenas and a warm cache; the compiled table itself is built once per plan and")
	fmt.Println("amortized across the corpus by the compiled-query cache.")
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
		"ref build ns/op", "table build ns/op", "speedup",
		"ref allocs/op", "table allocs/op")
	for wi, w := range workloads {
		a := rgx.MustCompilePattern(w.pattern)
		p, err := enum.NewPlan(a)
		if err != nil {
			panic(err)
		}
		for _, n := range sizes {
			doc := ebDoc(workload.Rand(int64(900+10*wi)), w.docAlpha, n)

			em := p.NewEnumerator()
			em.Reset(doc) // warm the arenas: measure steady-state builds
			rm := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					em.Reset(doc)
				}
			})

			er, err := enum.PrepareRef(a, doc)
			if err != nil {
				panic(err)
			}
			rr := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					er.Reset(doc)
				}
			})

			speedup := float64(rr.NsPerOp()) / float64(rm.NsPerOp())
			t.add(w.name, p.ByteClasses(), n,
				rr.NsPerOp(), rm.NsPerOp(), fmt.Sprintf("%.2fx", speedup),
				rr.AllocsPerOp(), rm.AllocsPerOp())
		}
	}
	t.print()
}
