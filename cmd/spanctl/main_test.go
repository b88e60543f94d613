package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/server"
)

func runCtl(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

func TestEvalCommand(t *testing.T) {
	out, errw, code := runCtl(t, "eval", "-p", ".*x{ab}.*", "-d", "zabzab")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "x=[2,4⟩") || !strings.Contains(out, "x=[5,7⟩") {
		t.Errorf("output missing spans: %q", out)
	}
	if !strings.Contains(errw, "2 match(es)") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestEvalJSON(t *testing.T) {
	out, _, code := runCtl(t, "eval", "-p", ".*x{ab}.*", "-d", "zab", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var row map[string]struct {
		Start int    `json:"start"`
		End   int    `json:"end"`
		Text  string `json:"text"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &row); err != nil {
		t.Fatalf("bad json %q: %v", out, err)
	}
	if row["x"].Start != 2 || row["x"].End != 4 || row["x"].Text != "ab" {
		t.Errorf("row = %+v", row)
	}
}

func TestEvalMaxFlag(t *testing.T) {
	out, _, code := runCtl(t, "eval", "-p", "a*x{a}a*", "-d", "aaaa", "-max", "2")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	if n := strings.Count(out, "x="); n != 2 {
		t.Errorf("got %d matches, want 2 (out %q)", n, out)
	}
}

func TestEvalFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.txt")
	if err := os.WriteFile(path, []byte("xaby"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCtl(t, "eval", "-p", ".*v{ab}.*", "-f", path)
	if code != 0 || !strings.Contains(out, "v=[2,4⟩") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, _, code := runCtl(t, "eval", "-d", "x"); code == 0 {
		t.Error("missing -p should fail")
	}
	if _, _, code := runCtl(t, "eval", "-p", "x{a}"); code == 0 {
		t.Error("missing doc should fail")
	}
	if _, _, code := runCtl(t, "eval", "-p", "(", "-d", "x"); code == 0 {
		t.Error("bad pattern should fail")
	}
}

func TestCheckCommand(t *testing.T) {
	out, _, code := runCtl(t, "check", "-p", "a*x{a*}a*")
	if code != 0 || !strings.Contains(out, "functional: yes") {
		t.Errorf("code=%d out=%q", code, out)
	}
	out, _, code = runCtl(t, "check", "-p", "x{a}|y{b}")
	if code == 0 || !strings.Contains(out, "functional: no") {
		t.Errorf("non-functional pattern: code=%d out=%q", code, out)
	}
}

func TestDotCommand(t *testing.T) {
	out, _, code := runCtl(t, "dot", "-p", "x{a}")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	for _, want := range []string{"digraph", "x⊢", "⊣x", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}

func TestKeyCommand(t *testing.T) {
	out, _, code := runCtl(t, "key", "-p", ".*x{a}y{b}.*", "-x", "x")
	if code != 0 || !strings.Contains(out, "key(x) = true") {
		t.Errorf("code=%d out=%q", code, out)
	}
	out, _, code = runCtl(t, "key", "-p", ".*x{a}.*y{b}.*", "-x", "y")
	if code != 0 || !strings.Contains(out, "key(y) = false") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, errw, code := runCtl(t, "frobnicate")
	if code != 2 || !strings.Contains(errw, "unknown command") {
		t.Errorf("code=%d stderr=%q", code, errw)
	}
}

func TestHelp(t *testing.T) {
	_, errw, code := runCtl(t, "help")
	if code != 0 || !strings.Contains(errw, "usage:") {
		t.Errorf("code=%d stderr=%q", code, errw)
	}
}

func TestNoArgs(t *testing.T) {
	if _, _, code := runCtl(t); code != 2 {
		t.Errorf("code=%d, want 2", code)
	}
}

func TestQueryCommand(t *testing.T) {
	out, errw, code := runCtl(t, "query",
		"-atom", ".*x{a+}.*",
		"-atom", ".*x{aa}.*",
		"-project", "x",
		"-d", "aaa")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if n := strings.Count(out, "x="); n != 2 {
		t.Errorf("got %d results, want 2 (out %q)", n, out)
	}
	if !strings.Contains(errw, "plan:") || !strings.Contains(errw, "2 result(s)") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestQueryCommandWithEquality(t *testing.T) {
	out, _, code := runCtl(t, "query",
		"-atom", "x{..} .* y{..}|x{..} y{..}",
		"-equal", "x,y",
		"-strategy", "canonical",
		"-d", "ab cd ab")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	if !strings.Contains(out, `x=[1,3⟩("ab")`) {
		t.Errorf("missing equal pair: %q", out)
	}
}

func TestQueryCommandErrors(t *testing.T) {
	if _, _, code := runCtl(t, "query", "-d", "x"); code == 0 {
		t.Error("no atoms should fail")
	}
	if _, _, code := runCtl(t, "query", "-atom", "x{a}", "-equal", "bad", "-d", "a"); code == 0 {
		t.Error("malformed -equal should fail")
	}
	if _, _, code := runCtl(t, "query", "-atom", "x{a}", "-strategy", "warp", "-d", "a"); code == 0 {
		t.Error("unknown strategy should fail")
	}
}

func TestCountCommand(t *testing.T) {
	out, _, code := runCtl(t, "count", "-p", "a*x{a+}a*", "-d", "aaaa")
	if code != 0 || !strings.Contains(out, "10 match(es)") {
		t.Errorf("code=%d out=%q, want 10 matches", code, out)
	}
	// No matches.
	out, _, code = runCtl(t, "count", "-p", "x{ab}", "-d", "zz")
	if code != 0 || !strings.Contains(out, "0 match(es)") {
		t.Errorf("empty count: code=%d out=%q", code, out)
	}
	if _, _, code := runCtl(t, "count", "-d", "x"); code == 0 {
		t.Error("missing -p should fail")
	}
}

func TestCountJSON(t *testing.T) {
	out, _, code := runCtl(t, "count", "-p", "a*x{a+}a*", "-d", "aaaa", "-json")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	var row struct {
		Count json.Number `json:"count"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &row); err != nil {
		t.Fatalf("bad json %q: %v", out, err)
	}
	if row.Count.String() != "10" {
		t.Errorf("count = %s, want 10", row.Count)
	}
}

func TestSampleCommand(t *testing.T) {
	out, errw, code := runCtl(t, "sample", "-p", "a*x{a+}a*", "-d", "aaaa", "-n", "5", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if n := strings.Count(out, "x="); n != 5 {
		t.Errorf("got %d samples, want 5 (out %q)", n, out)
	}
	if !strings.Contains(errw, "5 sample(s)") {
		t.Errorf("stderr = %q", errw)
	}
	// Same seed, same draws.
	again, _, _ := runCtl(t, "sample", "-p", "a*x{a+}a*", "-d", "aaaa", "-n", "5", "-seed", "7")
	if again != out {
		t.Error("seeded sampling is not deterministic across runs")
	}
	// Different seed should (for this result set and these seeds) differ.
	other, _, _ := runCtl(t, "sample", "-p", "a*x{a+}a*", "-d", "aaaa", "-n", "5", "-seed", "8")
	if other == out {
		t.Log("seeds 7 and 8 drew identical samples (unlikely but legal)")
	}
	if _, _, code := runCtl(t, "sample", "-p", "a*x{a}a*", "-d", "aa", "-n", "0"); code == 0 {
		t.Error("-n 0 should fail")
	}
}

func TestSampleJSON(t *testing.T) {
	out, _, code := runCtl(t, "sample", "-p", ".*x{ab}.*", "-d", "zab", "-n", "2", "-json")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSON lines, got %d: %q", len(lines), out)
	}
	for _, ln := range lines {
		var row map[string]struct {
			Start int    `json:"start"`
			End   int    `json:"end"`
			Text  string `json:"text"`
		}
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("bad json %q: %v", ln, err)
		}
		if row["x"].Text != "ab" {
			t.Errorf("sampled row = %+v", row)
		}
	}
}

func TestEvalLimitFlag(t *testing.T) {
	// A met -limit is intentional partial output: exit 0, exactly N lines.
	out, errw, code := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaaa", "-limit", "3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d (stderr %q)", code, exitOK, errw)
	}
	if n := strings.Count(out, "x="); n != 3 {
		t.Errorf("got %d matches, want 3 (out %q)", n, out)
	}
	if !strings.Contains(errw, "3 match(es)") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestEvalTimeoutExitCode(t *testing.T) {
	// A deadline that has effectively already passed must fail with the
	// deadline exit code, not the generic one.
	_, errw, code := runCtl(t, "eval", "-p", "a*x{a+}a*",
		"-d", strings.Repeat("a", 4096), "-timeout", "1ns")
	if code != exitDeadline {
		t.Fatalf("exit %d, want %d (stderr %q)", code, exitDeadline, errw)
	}
}

func TestEvalBudgetExitCode(t *testing.T) {
	// Budget 2 cannot cover scanning a 4096-byte document.
	_, errw, code := runCtl(t, "eval", "-p", "a*x{a+}a*",
		"-d", strings.Repeat("a", 4096), "-budget", "2")
	if code != exitBudget {
		t.Fatalf("exit %d, want %d (stderr %q)", code, exitBudget, errw)
	}
}

func TestEvalResilientMatchesPlain(t *testing.T) {
	// The corpus-backed resilient path (a -timeout leads there) must print
	// the same matches as the plain iterator path when no bound fires.
	plain, _, _ := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaaa")
	bounded, _, code := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaaa", "-timeout", "1m")
	if code != exitOK {
		t.Fatal("exit != 0")
	}
	if bounded != plain {
		t.Errorf("resilient output %q != plain output %q", bounded, plain)
	}
}

func TestEvalOffsetLimitWindow(t *testing.T) {
	// -offset with -limit is the documented window [offset, offset+limit):
	// over "aaa", a*x{a+}a* has ranked matches, and the window starting at
	// rank 1 of size 2 delivers exactly 2 of them.
	out, _, code := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaa", "-offset", "1", "-limit", "2")
	if code != exitOK {
		t.Fatalf("exit %d, want %d (out %q)", code, exitOK, out)
	}
	if n := strings.Count(out, "x="); n != 2 {
		t.Errorf("window [1,3): got %d matches, want 2 (out %q)", n, out)
	}
	// The window agrees with plain enumeration skipped by hand.
	all, _, _ := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaa")
	lines := strings.Split(strings.TrimSpace(all), "\n")
	want := strings.Join(lines[1:3], "\n") + "\n"
	if out != want {
		t.Errorf("window output %q, want rows 1..2 of %q", out, all)
	}
}

func TestEvalOffsetRejectsResilienceFlags(t *testing.T) {
	// -offset runs on the ranked iterator path, which -timeout/-budget do
	// not reach; combining them is a usage error, not a silent drop.
	for _, extra := range [][]string{{"-timeout", "1s"}, {"-budget", "10"}, {"-trace"}} {
		args := append([]string{"eval", "-p", "x{a}", "-d", "a", "-offset", "1"}, extra...)
		_, _, code := runCtl(t, args...)
		if code != exitUsage {
			t.Errorf("%v: exit %d, want %d", extra, code, exitUsage)
		}
	}
}

func TestEvalTraceLocal(t *testing.T) {
	out, errw, code := runCtl(t, "eval", "-p", ".*x{ab}.*", "-d", "zabzab", "-trace")
	if code != exitOK {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	// The matches still print, and stderr carries the stage breakdown —
	// the precompiled-spanner corpus path records plan build, prefilter
	// and the enumeration itself (no cache stage: -p compiled locally).
	if n := strings.Count(out, "x="); n != 2 {
		t.Errorf("got %d matches, want 2 (out %q)", n, out)
	}
	if !strings.Contains(errw, "trace:") {
		t.Fatalf("stderr has no trace block: %q", errw)
	}
	for _, stage := range []string{"plan_build", "prefilter", "enumerate"} {
		if !strings.Contains(errw, stage) {
			t.Errorf("trace missing stage %q: %q", stage, errw)
		}
	}
}

func TestEvalTraceRemote(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.AddAll("mail", "no matches here")
	ts := httptest.NewServer(server.New(c, server.Config{}).Handler())
	defer ts.Close()

	out, errw, code := runCtl(t, "eval", "-p", "x{mail}", "-addr", ts.URL, "-trace")
	if code != exitOK {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "x=") {
		t.Errorf("no matches printed: %q", out)
	}
	// The server's cursor-paginated eval runs the cache lookup and the
	// ranked counting sweep; those stages come back over the wire.
	if !strings.Contains(errw, "trace:") || !strings.Contains(errw, "cache") || !strings.Contains(errw, "count") {
		t.Errorf("remote trace breakdown missing: %q", errw)
	}
}

func TestQueryTimeoutAndBudgetExitCodes(t *testing.T) {
	doc := strings.Repeat("a", 4096)
	_, errw, code := runCtl(t, "query", "-atom", "a*x{a+}a*", "-d", doc, "-timeout", "1ns")
	if code != exitDeadline {
		t.Fatalf("timeout: exit %d, want %d (stderr %q)", code, exitDeadline, errw)
	}
	_, errw, code = runCtl(t, "query", "-atom", "a*x{a+}a*", "-d", doc, "-budget", "2")
	if code != exitBudget {
		t.Fatalf("budget: exit %d, want %d (stderr %q)", code, exitBudget, errw)
	}
	out, errw, code := runCtl(t, "query", "-atom", "a*x{a+}a*", "-d", "aaaa", "-limit", "3")
	if code != exitOK {
		t.Fatalf("limit: exit %d, want %d (stderr %q)", code, exitOK, errw)
	}
	if n := strings.Count(out, "x="); n != 3 {
		t.Errorf("limit: got %d results, want 3 (out %q)", n, out)
	}
}

func TestEvalOffsetFlag(t *testing.T) {
	// The full enumeration on aaaa has 10 matches; -offset 8 leaves 2.
	full, _, _ := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaaa")
	out, errw, code := runCtl(t, "eval", "-p", "a*x{a+}a*", "-d", "aaaa", "-offset", "8")
	if code != 0 {
		t.Fatal("exit != 0")
	}
	if !strings.Contains(errw, "2 match(es)") {
		t.Errorf("stderr = %q, want 2 matches after offset 8", errw)
	}
	lines := strings.Split(strings.TrimSpace(full), "\n")
	if want := strings.Join(lines[8:], "\n") + "\n"; out != want {
		t.Errorf("offset page = %q, want tail of full enumeration %q", out, want)
	}

	// A deep offset is one ranked DAG descent, as the flag's help says,
	// not two million Next steps: the window's one match is ResultAt's.
	doc := strings.Repeat("a", 2048)
	start := time.Now()
	out, errw, code = runCtl(t, "eval", "-p", ".*x{a+}.*", "-d", doc, "-offset", "2000000", "-limit", "1")
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("-offset 2000000 took %v, want one descent (well under 5s)", took)
	}
	if code != 0 {
		t.Fatalf("deep offset: exit %d, stderr %q", code, errw)
	}
	r, err := spanjoin.MustCompile(".*x{a+}.*").Ranked(doc)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.ResultAt(2000000)
	if want := m.String() + "\n"; !ok || out != want {
		t.Errorf("deep offset page = %q, want ResultAt(2000000) = %q", out, want)
	}
}

// TestSampleUsageValidation pins the satellite contract: malformed draw
// parameters are usage errors (exit 2), caught before any evaluation.
func TestSampleUsageValidation(t *testing.T) {
	bad := [][]string{
		{"sample", "-p", "x{a}", "-d", "a", "-n", "0"},
		{"sample", "-p", "x{a}", "-d", "a", "-n", "-3"},
		{"sample", "-p", "x{a}", "-d", "a", "-seed", "-1"},
		{"sample", "-d", "a", "-n", "1"}, // missing -p
	}
	for _, args := range bad {
		if _, _, code := runCtl(t, args...); code != exitUsage {
			t.Errorf("%v: exit %d, want %d", args, code, exitUsage)
		}
	}
	// The happy path still works, including seed 0.
	out, _, code := runCtl(t, "sample", "-p", "a*x{a+}a*", "-d", "aaaa", "-n", "2", "-seed", "0")
	if code != exitOK {
		t.Fatalf("valid sample: exit %d (out %q)", code, out)
	}
	if n := strings.Count(out, "x="); n != 2 {
		t.Errorf("valid sample: %d draws, want 2", n)
	}
}

// TestRemoteMode round-trips eval/count/sample/stats against a real
// spand server over a TCP socket — the CLI's client mode end to end.
func TestRemoteMode(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.AddAll("alice sent mail", "no matches here", "aa mail mail aa", "mail")
	ts := httptest.NewServer(server.New(c, server.Config{}).Handler())
	defer ts.Close()

	out, errw, code := runCtl(t, "eval", "-p", `x{mail}`, "-addr", ts.URL, "-json")
	if code != exitOK {
		t.Fatalf("eval: exit %d, stderr %q", code, errw)
	}
	// Anchor mode: only the document that is exactly "mail" matches.
	if n := strings.Count(out, `"text":"mail"`); n != 1 {
		t.Errorf("remote eval: %d rows (out %q), want 1", n, out)
	}

	out, _, code = runCtl(t, "count", "-p", `x{mail}`, "-addr", ts.URL, "-json")
	if code != exitOK || strings.TrimSpace(out) != `{"count":1}` {
		t.Errorf("remote count: exit %d out %q, want {\"count\":1}", code, out)
	}

	out, errw, code = runCtl(t, "sample", "-p", `x{mail}`, "-addr", ts.URL, "-n", "3", "-seed", "7")
	if code != exitOK {
		t.Fatalf("sample: exit %d, stderr %q", code, errw)
	}
	if n := strings.Count(out, "x="); n != 3 {
		t.Errorf("remote sample: %d draws (out %q), want 3", n, out)
	}

	out, _, code = runCtl(t, "stats", "-addr", ts.URL)
	if code != exitOK || !strings.Contains(out, "docs:") {
		t.Errorf("stats: exit %d out %q", code, out)
	}

	// Remote + local document sources are mutually exclusive; missing
	// -addr on stats is usage too.
	for _, args := range [][]string{
		{"eval", "-p", "x{a}", "-addr", ts.URL, "-d", "a"},
		{"count", "-p", "x{a}", "-addr", ts.URL, "-f", "x"},
		{"sample", "-p", "x{a}", "-addr", ts.URL, "-d", "a"},
		{"stats"},
	} {
		if _, _, code := runCtl(t, args...); code != exitUsage {
			t.Errorf("%v: exit %d, want %d", args, code, exitUsage)
		}
	}
}
