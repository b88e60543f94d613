package bitset

import (
	"math/rand"
	"testing"
)

func TestZeroUniverse(t *testing.T) {
	r := NewRow(0)
	if len(r) != 0 {
		t.Fatalf("NewRow(0) has %d words, want 0", len(r))
	}
	if r.Any() || r.Count() != 0 {
		t.Fatal("empty row should have no bits")
	}
	if got := r.NextOne(0); got != -1 {
		t.Fatalf("NextOne on empty universe = %d, want -1", got)
	}
	if out := r.AppendOnes(nil); len(out) != 0 {
		t.Fatalf("AppendOnes on empty universe = %v", out)
	}
	// Binary ops on empty rows must not panic.
	r.Or(NewRow(0))
	r.And(NewRow(0))
	r.Zero()
	if !r.Equal(NewRow(0)) {
		t.Fatal("empty rows should be equal")
	}
	m := NewMatrix(0, 0)
	if m.Rows() != 0 {
		t.Fatal("empty matrix rows")
	}
}

// TestWordBoundary65 exercises the 65-state universe where sets straddle the
// first word boundary.
func TestWordBoundary65(t *testing.T) {
	const n = 65
	r := NewRow(n)
	if len(r) != 2 {
		t.Fatalf("65 bits need 2 words, got %d", len(r))
	}
	for _, i := range []int32{0, 63, 64} {
		r.Set(i)
		if !r.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d, want 3", r.Count())
	}
	if got := r.AppendOnes(nil); len(got) != 3 || got[0] != 0 || got[1] != 63 || got[2] != 64 {
		t.Fatalf("ones = %v", got)
	}
	if got := r.NextOne(1); got != 63 {
		t.Fatalf("NextOne(1) = %d, want 63", got)
	}
	if got := r.NextOne(64); got != 64 {
		t.Fatalf("NextOne(64) = %d, want 64", got)
	}
	if got := r.NextOne(65); got != -1 {
		t.Fatalf("NextOne(65) = %d, want -1", got)
	}
}

func TestOrAndAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 200} {
		a, b := NewRow(n), NewRow(n)
		ra, rb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(int32(i))
				ra[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(int32(i))
				rb[i] = true
			}
		}
		or := NewRow(n)
		or.CopyFrom(a)
		or.Or(b)
		and := NewRow(n)
		and.CopyFrom(a)
		and.And(b)
		for i := 0; i < n; i++ {
			if or.Test(int32(i)) != (ra[i] || rb[i]) {
				t.Fatalf("n=%d or bit %d", n, i)
			}
			if and.Test(int32(i)) != (ra[i] && rb[i]) {
				t.Fatalf("n=%d and bit %d", n, i)
			}
		}
		// NextOne scan equals AppendOnes.
		var scan []int32
		for i := or.NextOne(0); i >= 0; i = or.NextOne(i + 1) {
			scan = append(scan, i)
		}
		app := or.AppendOnes(nil)
		if len(scan) != len(app) {
			t.Fatalf("n=%d scan %v vs append %v", n, scan, app)
		}
		for i := range scan {
			if scan[i] != app[i] {
				t.Fatalf("n=%d scan %v vs append %v", n, scan, app)
			}
		}
	}
}

func TestMatrixResizeReuse(t *testing.T) {
	m := NewMatrix(4, 100)
	m.Row(3).Set(99)
	m.Resize(2, 65)
	for i := 0; i < 2; i++ {
		if m.Row(i).Any() {
			t.Fatal("resize must zero reused backing")
		}
	}
	m.Row(1).Set(64)
	if !m.Row(1).Test(64) || m.Row(0).Test(64) {
		t.Fatal("row views overlap after resize")
	}
	// Growing reallocates; content again zeroed.
	m.Resize(8, 128)
	for i := 0; i < 8; i++ {
		if m.Row(i).Any() {
			t.Fatal("grown matrix not zeroed")
		}
	}
}
