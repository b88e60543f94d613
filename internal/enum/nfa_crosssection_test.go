package enum

import (
	"math/rand"
	"testing"
)

// collect drains a cross-section into copied words.
func collect(t *testing.T, m *NFA, length int) [][]int32 {
	t.Helper()
	cs, err := m.EnumerateLength(length)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int32
	for {
		w, ok := cs.Next()
		if !ok {
			return out
		}
		out = append(out, append([]int32(nil), w...))
	}
}

// bruteForce enumerates Σ^length and filters by Accepts.
func bruteForce(m *NFA, length int) [][]int32 {
	var out [][]int32
	word := make([]int32, length)
	var rec func(int)
	rec = func(i int) {
		if i == length {
			if m.Accepts(word) {
				out = append(out, append([]int32(nil), word...))
			}
			return
		}
		for s := int32(0); s < int32(m.NumSyms); s++ {
			word[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func less(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestCrossSectionFixed(t *testing.T) {
	// (ab)* over {a=0, b=1}.
	m := NewNFA(2, 2)
	m.Start = []int32{0}
	m.Final = []int32{0}
	m.Add(0, 0, 1)
	m.Add(1, 1, 0)
	if got := collect(t, m, 0); len(got) != 1 {
		t.Errorf("length 0: got %d words, want 1 (ε)", len(got))
	}
	if got := collect(t, m, 1); len(got) != 0 {
		t.Errorf("length 1: got %d words, want 0", len(got))
	}
	got := collect(t, m, 4)
	if len(got) != 1 || got[0][0] != 0 || got[0][1] != 1 {
		t.Errorf("length 4: got %v, want [abab]", got)
	}
}

func TestCrossSectionAllWords(t *testing.T) {
	// Σ* accepts everything: cross-section is all Σ^n in radix order.
	m := NewNFA(1, 3)
	m.Start = []int32{0}
	m.Final = []int32{0}
	for s := int32(0); s < 3; s++ {
		m.Add(0, s, 0)
	}
	got := collect(t, m, 3)
	if len(got) != 27 {
		t.Fatalf("got %d words, want 27", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !less(got[i-1], got[i]) {
			t.Fatalf("not in radix order at %d: %v !< %v", i, got[i-1], got[i])
		}
	}
}

func TestCrossSectionRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		states := r.Intn(5) + 1
		syms := r.Intn(3) + 1
		m := NewNFA(states, syms)
		m.Start = []int32{int32(r.Intn(states))}
		for i := r.Intn(2) + 1; i > 0; i-- {
			m.Final = append(m.Final, int32(r.Intn(states)))
		}
		for i := r.Intn(10) + 1; i > 0; i-- {
			m.Add(int32(r.Intn(states)), int32(r.Intn(syms)), int32(r.Intn(states)))
		}
		for length := 0; length <= 4; length++ {
			got := collect(t, m, length)
			want := bruteForce(m, length)
			if len(got) != len(want) {
				t.Fatalf("trial %d length %d: got %d words, want %d", trial, length, len(got), len(want))
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("trial %d length %d word %d: %v != %v", trial, length, i, got[i], want[i])
					}
				}
				if i > 0 && !less(got[i-1], got[i]) {
					t.Fatalf("trial %d: radix order violated", trial)
				}
			}
		}
	}
}

func TestCrossSectionMultipleStarts(t *testing.T) {
	m := NewNFA(3, 2)
	m.Start = []int32{0, 1}
	m.Final = []int32{2}
	m.Add(0, 0, 2) // a from state 0
	m.Add(1, 1, 2) // b from state 1
	got := collect(t, m, 1)
	if len(got) != 2 {
		t.Fatalf("got %d words, want 2", len(got))
	}
}

func TestNegativeLength(t *testing.T) {
	m := NewNFA(1, 1)
	if _, err := m.EnumerateLength(-1); err == nil {
		t.Error("negative length must error")
	}
}
