package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTablePrinter(t *testing.T) {
	tb := newTable("a", "bee")
	tb.add(1, "x")
	tb.add(123456, 2.5)
	out := captureStdout(t, tb.print)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "| a") || !strings.Contains(lines[0], "bee") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[3], "2.50") {
		t.Errorf("float formatting wrong: %q", lines[3])
	}
	// Column alignment: all lines equal length.
	for _, ln := range lines[1:] {
		if len(ln) != len(lines[0]) {
			t.Errorf("ragged table:\n%s", out)
		}
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[string]string{
		"500ns": "500ns",
		"1.5µs": "1.5µs",
		"2ms":   "2.00ms",
		"3s":    "3.00s",
	}
	for in, want := range cases {
		d, err := time.ParseDuration(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "EB", "EC", "ED", "EN", "EO", "EP", "ER", "ES", "F1", "G1"}
	have := map[string]bool{}
	for _, e := range experiments {
		have[e.id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(experiments) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(experiments), len(want))
	}
}

// TestCheapExperimentsRun executes the structural (non-timing) experiments
// end to end.
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"F1", "G1"} {
		out := captureStdout(t, func() {
			for _, e := range experiments {
				if e.id == id {
					e.run(true)
				}
			}
		})
		if len(out) == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

// TestGoldenTables pins the structural experiments byte for byte: F1's
// layered graph of Figure 1 and G1's result tables (Examples 4.2 and A.1,
// the latter compiled through rgx) must print exactly what
// `spanbench -experiment F1` (or G1) printed when testdata was generated.
// A construction or build change that alters either fails here.
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{"F1", "G1"} {
		want, err := os.ReadFile("testdata/" + strings.ToLower(id) + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, e := range experiments {
			if e.id == id {
				got = fmt.Sprintf("## %s — %s\n\n", e.id, e.title) + captureStdout(t, func() { e.run(false) }) + "\n"
			}
		}
		if got != string(want) {
			t.Errorf("%s output differs from testdata:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}
