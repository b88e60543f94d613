// Command spanctl is the command-line interface to the spanjoin document-
// spanner engine.
//
// Usage:
//
//	spanctl eval  -p PATTERN [-d DOC | -f FILE | -addr URL] [-offset N]
//	              [-max N] [-json] [-timeout D] [-limit N] [-budget N] [-trace]
//	    evaluate a regex formula and print every match; -offset/-limit
//	    select the window [offset, offset+limit); -timeout, -limit and
//	    -budget bound the evaluation, failing with distinct exit codes
//	    (3: deadline, 5: budget; a met -limit exits 0); -addr evaluates
//	    against a spand server instead of a local document; -trace prints
//	    the per-stage timing breakdown (cache, plan build, prefilter,
//	    enumerate, ...) on stderr — local or remote
//	spanctl count -p PATTERN [-d DOC | -f FILE | -addr URL] [-json]
//	    print the exact number of matches without enumerating them
//	    (ranked DP; counts beyond uint64 stay exact)
//	spanctl sample -p PATTERN -n K [-seed S] [-d DOC | -f FILE | -addr URL] [-json]
//	    print K matches drawn i.i.d. uniformly from the result set
//	spanctl stats -addr URL [-json]
//	    print a spand server's corpus/cache/gate/request counters
//	spanctl check -p PATTERN
//	    parse a pattern and report functionality
//	spanctl dot   -p PATTERN
//	    print the compiled vset-automaton in Graphviz dot format
//	spanctl key   -p PATTERN -x VAR
//	    decide whether VAR is a key attribute (Prop 3.6)
//	spanctl query -atom P [-atom P ...] [-equal x,y] [-project v,w] [-strategy s] [-d DOC]
//	    evaluate a conjunctive query over regex atoms
//
// Examples:
//
//	spanctl eval -p '.*x{[a-z]+}@y{[a-z]+}.*' -d 'mail bob@example now'
//	spanctl count -p 'a*x{a+}a*' -d 'aaaaaaaa'
//	spanctl sample -p 'a*x{a+}a*' -d 'aaaaaaaa' -n 3 -seed 7
//	spanctl check -p 'x{a}|y{b}'
//	spanctl key -p '.*x{a}y{b}.*' -x x
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"spanjoin"
	"spanjoin/client"
	"spanjoin/internal/rgx"
	"spanjoin/internal/vsa"
)

// Exit codes. Resource-limit failures get distinct codes so scripts can
// tell "the query is too expensive" from "the query is wrong":
//
//	0  success (including a met -limit: partial output is intentional)
//	1  generic error (bad pattern, unreadable file, evaluation failure)
//	2  usage error
//	3  deadline exceeded (-timeout)
//	4  overloaded (admission control shed the query)
//	5  work budget exceeded (-budget)
//	6  durable state corrupt (a spand server failed recovery)
const (
	exitOK       = 0
	exitErr      = 1
	exitUsage    = 2
	exitDeadline = 3
	exitOverload = 4
	exitBudget   = 5
	exitCorrupt  = 6
)

// usageErr marks an error as a usage error (exit 2): the invocation is
// malformed and no evaluation was attempted.
type usageErr struct{ err error }

func (e *usageErr) Error() string { return e.err.Error() }
func (e *usageErr) Unwrap() error { return e.err }

// usagef builds a usage error.
func usagef(format string, a ...any) error {
	return &usageErr{fmt.Errorf(format, a...)}
}

// exitCode maps an error to its exit code via the typed error taxonomy.
// The remote error types of the client package unwrap onto the same
// sentinels, so a 429 from a spand server exits 4 exactly like a local
// shed. The switch is over FailureClass — the same classification the
// server's status map uses — and the annotation below makes spanlint's
// taxonomy analyzer verify it stays exhaustive: a failure class added
// to the taxonomy cannot ship without an exit code. Panics and client-
// side cancellation deliberately share the generic exit: for a CLI both
// are "the evaluation failed", not a distinct scriptable condition.
//
//spanjoin:taxonomy-map
func exitCode(err error) int {
	var ue *usageErr
	if err == nil {
		return exitOK
	}
	if errors.As(err, &ue) {
		return exitUsage
	}
	switch spanjoin.FailureClass(err) {
	case spanjoin.FailureDeadline:
		return exitDeadline
	case spanjoin.FailureOverloaded:
		return exitOverload
	case spanjoin.FailureBudget:
		return exitBudget
	case spanjoin.FailureCorrupt:
		return exitCorrupt
	case spanjoin.FailurePanic, spanjoin.FailureCanceled:
		return exitErr
	}
	return exitErr
}

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// run dispatches a spanctl invocation; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "eval":
		err = cmdEval(args[1:], stdout, stderr)
	case "count":
		err = cmdCount(args[1:], stdout)
	case "sample":
		err = cmdSample(args[1:], stdout, stderr)
	case "check":
		err = cmdCheck(args[1:], stdout)
	case "dot":
		err = cmdDot(args[1:], stdout)
	case "key":
		err = cmdKey(args[1:], stdout)
	case "query":
		err = cmdQuery(args[1:], stdout, stderr)
	case "stats":
		err = cmdStats(args[1:], stdout)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "spanctl: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "spanctl:", err)
		return exitCode(err)
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: spanctl <eval|count|sample|check|dot|key|query|stats> [flags]
  eval   -p PATTERN [-d DOC | -f FILE | -addr URL] [-offset N] [-max N] [-json]
         [-timeout D] [-limit N] [-budget N] [-trace]
         evaluate on a document or a spand server; -offset/-limit is the
         window [offset, offset+limit), entered ranked, not by stepping;
         -trace prints the per-stage timing breakdown on stderr
  count  -p PATTERN [-d DOC | -f FILE | -addr URL] [-json]  exact match count, no enumeration
  sample -p PATTERN -n K [-seed S] [-d DOC|-f FILE|-addr URL] [-json]
         K i.i.d. uniform matches (-n >= 1, -seed >= 0)
  stats  -addr URL [-json]                               spand server counters
  check  -p PATTERN                                      functionality check
  dot    -p PATTERN                                      automaton as Graphviz dot
  key    -p PATTERN -x VAR                               key-attribute test
  query  -atom P [-atom P ...] [-equal x,y] [-project v,w] [-strategy s] [-d DOC|-f FILE]
         [-timeout D] [-limit N] [-budget N]
         evaluate a conjunctive query over regex atoms

resource limits (eval, query):
  -timeout D   abort after duration D (e.g. 500ms); partial output kept
  -limit N     stop after N results (normal exhaustion, exit 0)
  -budget N    work budget: doc bytes scanned + results delivered

exit codes:
  0 success   1 error   2 usage
  3 deadline exceeded (-timeout)   4 overloaded   5 budget exceeded (-budget)`)
}

func readDoc(doc, file string) (string, error) {
	switch {
	case doc != "":
		return doc, nil
	case file == "-":
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	case file != "":
		b, err := os.ReadFile(file)
		return string(b), err
	}
	return "", fmt.Errorf("provide a document with -d or -f (use -f - for stdin)")
}

func cmdEval(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	doc := fs.String("d", "", "document text")
	file := fs.String("f", "", "document file ('-' for stdin)")
	addr := fs.String("addr", "", "evaluate against a spand server at this URL instead of a local document")
	offset := fs.Uint64("offset", 0, "start at match rank N (one ranked DAG descent, not N steps)")
	maxN := fs.Int("max", 0, "stop after N matches (0 = all)")
	limit := fs.Int("limit", 0, "deliver at most N matches; with -offset, the window is [offset, offset+limit)")
	timeout := fs.Duration("timeout", 0, "abort after this long, exit "+fmt.Sprint(exitDeadline)+" (0 = none)")
	budget := fs.Int("budget", 0, "work budget in engine units (doc bytes + results), exit "+fmt.Sprint(exitBudget)+" when exceeded (0 = none)")
	trace := fs.Bool("trace", false, "print the per-stage timing breakdown on stderr after the run")
	asJSON := fs.Bool("json", false, "emit JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return usagef("-p is required")
	}
	if *addr != "" {
		if *doc != "" || *file != "" {
			return usagef("-addr does not combine with -d/-f (the corpus lives on the server)")
		}
		return evalRemote(*addr, *pattern, *offset, *limit, *maxN, *timeout, *budget, *trace, *asJSON, stdout, stderr)
	}
	text, err := readDoc(*doc, *file)
	if err != nil {
		return err
	}
	sp, err := spanjoin.Compile(*pattern)
	if err != nil {
		return err
	}
	if *timeout > 0 || *budget > 0 || *trace {
		// The resilience knobs — and -trace, whose stages are recorded by
		// the corpus pipeline — run through the corpus engine (a
		// single-document corpus), which is where deadlines, limits and
		// budgets are enforced with typed errors. Offsets stay with the
		// ranked iterator path, which these knobs do not reach.
		if *offset > 0 {
			return usagef("-offset does not combine with -timeout/-budget/-trace")
		}
		return evalResilient(sp, text, *timeout, effLimit(*limit, *maxN), *budget, *trace, *asJSON, stdout, stderr)
	}
	it, err := sp.Iterate(context.Background(), text)
	if err != nil {
		return err
	}
	if *offset > 0 {
		it.Skip(*offset)
	}
	// -offset with -limit is the documented window [offset, offset+limit):
	// skip to rank offset with one ranked descent, then deliver limit
	// matches. -max composes as a further cap, and the stream stops at the
	// cap, so the engine stops early.
	capN := effLimit(*limit, *maxN)
	enc := json.NewEncoder(stdout)
	count := 0
	for {
		m, ok := it.Next()
		if !ok {
			break
		}
		count++
		if err := printMatch(enc, stdout, m, *asJSON); err != nil {
			return err
		}
		if capN > 0 && count >= capN {
			break
		}
	}
	// spanlint/closecheck: a drained stream's Err distinguishes
	// cancellation from exhaustion.
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d match(es)\n", count)
	return nil
}

// effLimit merges -limit and -max into one effective cap (0 = none).
func effLimit(limit, maxN int) int {
	if limit == 0 || (maxN > 0 && maxN < limit) {
		return maxN
	}
	return limit
}

// evalRemote pages a corpus evaluation off a spand server, following
// cursor tokens until the cap or the result sequence is exhausted.
// Typed remote failures (shed, deadline, budget) unwrap onto the same
// sentinels as local ones, so the exit codes match; budget-mode partial
// rows are printed before the error surfaces, like a local partial
// stream.
func evalRemote(addr, pattern string, offset uint64, limit, maxN int, timeout time.Duration, budget int, trace, asJSON bool, stdout, stderr io.Writer) error {
	cl, err := client.New(addr)
	if err != nil {
		return err
	}
	want := effLimit(limit, maxN)
	req := client.EvalRequest{Pattern: pattern, Offset: offset, Timeout: timeout, Budget: budget, Trace: trace}
	if want > 0 {
		req.Limit = want
	}
	enc := json.NewEncoder(stdout)
	count := 0
	var stages []spanjoin.StageSpan
	for {
		page, err := cl.Eval(context.Background(), req)
		if page != nil {
			for _, m := range page.Matches {
				if want > 0 && count >= want {
					break
				}
				count++
				if perr := printRemoteMatch(enc, stdout, m, asJSON); perr != nil {
					return perr
				}
			}
			stages = mergeStages(stages, page.Trace)
		}
		if err != nil {
			if trace {
				printStages(stderr, stages)
			}
			return err
		}
		if page.Next == "" || (want > 0 && count >= want) {
			break
		}
		req = client.EvalRequest{Cursor: page.Next, Timeout: timeout, Trace: trace}
		if want > 0 {
			req.Limit = want - count
		}
	}
	if trace {
		printStages(stderr, stages)
	}
	fmt.Fprintf(stderr, "%d match(es)\n", count)
	return nil
}

// mergeStages folds one page's stage spans into the accumulated
// breakdown — a paginated eval is several server requests, and the
// printed trace is their sum per stage.
func mergeStages(into, more []spanjoin.StageSpan) []spanjoin.StageSpan {
	for _, s := range more {
		merged := false
		for i := range into {
			if into[i].Stage == s.Stage {
				into[i].Dur += s.Dur
				into[i].Items += s.Items
				into[i].Calls += s.Calls
				merged = true
				break
			}
		}
		if !merged {
			into = append(into, s)
		}
	}
	return into
}

// printStages writes a traced evaluation's per-stage breakdown, one line
// per stage in first-occurrence order.
func printStages(w io.Writer, stages []spanjoin.StageSpan) {
	if len(stages) == 0 {
		fmt.Fprintln(w, "trace: no stages recorded")
		return
	}
	fmt.Fprintln(w, "trace:")
	for _, s := range stages {
		fmt.Fprintf(w, "  %-14s %12v", string(s.Stage), s.Dur)
		if s.Items > 0 {
			fmt.Fprintf(w, "  items=%d", s.Items)
		}
		if s.Calls > 1 {
			fmt.Fprintf(w, "  calls=%d", s.Calls)
		}
		fmt.Fprintln(w)
	}
}

// printRemoteMatch writes one wire row as text or as a JSON line.
func printRemoteMatch(enc *json.Encoder, stdout io.Writer, m client.Match, asJSON bool) error {
	if asJSON {
		return enc.Encode(m)
	}
	vars := make([]string, 0, len(m.Spans))
	for v := range m.Spans {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	fmt.Fprintf(&b, "doc=%d", m.Doc)
	for _, v := range vars {
		s := m.Spans[v]
		fmt.Fprintf(&b, " %s=[%d,%d)%q", v, s.Start, s.End, s.Text)
	}
	_, err := fmt.Fprintln(stdout, b.String())
	return err
}

// evalResilient routes an eval through a single-document corpus, where
// deadlines, limits and budgets are enforced with typed errors — which is
// what gives the distinct exit codes. Semantics are unchanged: the same
// precompiled spanner runs over the same document.
func evalResilient(sp *spanjoin.Spanner, text string, timeout time.Duration, limit, budget int, trace, asJSON bool, stdout, stderr io.Writer) error {
	c := spanjoin.NewCorpus(spanjoin.WithShards(1), spanjoin.WithWorkers(1))
	c.Add(text)
	ctx := context.Background()
	var tr *spanjoin.QueryTrace
	if trace {
		ctx, tr = spanjoin.WithTrace(ctx)
	}
	ms, err := c.Eval(ctx, spanjoin.Of(sp), resilientOpts(timeout, limit, budget)...)
	if err != nil {
		return err
	}
	err = drainCorpus(ms, asJSON, stdout, stderr)
	if trace {
		// Printed even on a typed failure: the partial breakdown shows
		// where a timed-out or over-budget query spent its allowance.
		printStages(stderr, tr.Spans())
	}
	return err
}

// resilientOpts translates the CLI's resource flags into engine options.
func resilientOpts(timeout time.Duration, limit, budget int) []spanjoin.Option {
	var opts []spanjoin.Option
	if timeout > 0 {
		opts = append(opts, spanjoin.WithTimeout(timeout))
	}
	if limit > 0 {
		opts = append(opts, spanjoin.WithLimit(limit))
	}
	if budget > 0 {
		opts = append(opts, spanjoin.WithBudget(budget))
	}
	return opts
}

// drainCorpus prints a corpus stream and surfaces its typed error, so a
// deadline or budget that fires mid-stream still keeps the partial output
// already printed.
func drainCorpus(ms *spanjoin.CorpusMatches, asJSON bool, stdout, stderr io.Writer) error {
	defer ms.Close()
	enc := json.NewEncoder(stdout)
	count := 0
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		count++
		if err := printMatch(enc, stdout, m.Match, asJSON); err != nil {
			return err
		}
	}
	if err := ms.Err(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d match(es)\n", count)
	return nil
}

// printMatch writes one match as text or as a JSON line.
func printMatch(enc *json.Encoder, stdout io.Writer, m spanjoin.Match, asJSON bool) error {
	if !asJSON {
		_, err := fmt.Fprintln(stdout, m)
		return err
	}
	row := map[string]any{}
	for _, v := range m.Vars() {
		p, _ := m.Span(v)
		s, _ := m.Substr(v)
		row[v] = map[string]any{"start": p.Start, "end": p.End, "text": s}
	}
	return enc.Encode(row)
}

func cmdCount(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	doc := fs.String("d", "", "document text")
	file := fs.String("f", "", "document file ('-' for stdin)")
	addr := fs.String("addr", "", "count against a spand server at this URL instead of a local document")
	timeout := fs.Duration("timeout", 0, "abort after this long (remote only; 0 = server default)")
	asJSON := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return usagef("-p is required")
	}
	var n fmt.Stringer
	if *addr != "" {
		if *doc != "" || *file != "" {
			return usagef("-addr does not combine with -d/-f (the corpus lives on the server)")
		}
		cl, err := client.New(*addr)
		if err != nil {
			return err
		}
		n, err = cl.Count(context.Background(), *pattern, "", *timeout)
		if err != nil {
			return err
		}
	} else {
		text, err := readDoc(*doc, *file)
		if err != nil {
			return err
		}
		sp, err := spanjoin.Compile(*pattern)
		if err != nil {
			return err
		}
		if n, err = sp.Count(text); err != nil {
			return err
		}
	}
	if *asJSON {
		// Both count types print a decimal integer — a valid JSON number at
		// any magnitude, so counts beyond uint64 stay exact on the wire.
		fmt.Fprintf(stdout, "{\"count\":%s}\n", n)
		return nil
	}
	fmt.Fprintf(stdout, "%s match(es)\n", n)
	return nil
}

func cmdSample(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sample", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	doc := fs.String("d", "", "document text")
	file := fs.String("f", "", "document file ('-' for stdin)")
	addr := fs.String("addr", "", "sample against a spand server at this URL instead of a local document")
	k := fs.Int("n", 1, "number of samples to draw (must be >= 1)")
	seed := fs.Int64("seed", 1, "random seed, non-negative (same seed, same draws)")
	asJSON := fs.Bool("json", false, "emit JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return usagef("-p is required")
	}
	// Malformed draws are usage errors (exit 2), caught before any work:
	// a non-positive -n samples nothing, and a negative -seed would feed
	// rand.NewSource a value the documented "same seed, same draws"
	// contract never covers.
	if *k < 1 {
		return usagef("-n must be at least 1 (got %d)", *k)
	}
	if *seed < 0 {
		return usagef("-seed must be non-negative (got %d)", *seed)
	}
	if *addr != "" {
		if *doc != "" || *file != "" {
			return usagef("-addr does not combine with -d/-f (the corpus lives on the server)")
		}
		cl, err := client.New(*addr)
		if err != nil {
			return err
		}
		ms, err := cl.Sample(context.Background(), *pattern, "", *k, *seed)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		for _, m := range ms {
			if err := printRemoteMatch(enc, stdout, m, *asJSON); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "%d sample(s) drawn uniformly\n", len(ms))
		return nil
	}
	text, err := readDoc(*doc, *file)
	if err != nil {
		return err
	}
	sp, err := spanjoin.Compile(*pattern)
	if err != nil {
		return err
	}
	ms, err := sp.Sample(text, rand.New(rand.NewSource(*seed)), *k)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	for _, m := range ms {
		if err := printMatch(enc, stdout, m, *asJSON); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "%d sample(s) drawn uniformly\n", len(ms))
	return nil
}

// cmdStats prints a spand server's operational counters.
func cmdStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "", "spand server URL (required)")
	asJSON := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return usagef("-addr is required")
	}
	cl, err := client.New(*addr)
	if err != nil {
		return err
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(stdout).Encode(st)
	}
	fmt.Fprintf(stdout, "docs:     %d (%d shards, indexed=%v)\n", st.Docs, st.Shards, st.Indexed)
	fmt.Fprintf(stdout, "cache:    %d hits, %d misses, %d resident, %d bytes (%.0f%% hit rate)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Resident, st.Cache.Bytes, 100*st.Cache.HitRate)
	fmt.Fprintf(stdout, "gate:     %d active, %d queued, %d rejected\n",
		st.Gate.Active, st.Gate.Queued, st.Gate.Rejected)
	fmt.Fprintf(stdout, "requests: %d served, %d failed\n", st.Server.Served, st.Server.Failed)
	return nil
}

func cmdCheck(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return fmt.Errorf("-p is required")
	}
	f, err := rgx.Parse(*pattern)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern:   %s\n", f)
	fmt.Fprintf(stdout, "variables: %v\n", f.Vars)
	fmt.Fprintf(stdout, "size:      %d nodes\n", f.Size())
	if err := f.CheckFunctional(); err != nil {
		fmt.Fprintf(stdout, "functional: no (%v)\n", err)
		return fmt.Errorf("pattern is not functional")
	}
	fmt.Fprintln(stdout, "functional: yes")
	return nil
}

func cmdDot(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" {
		return fmt.Errorf("-p is required")
	}
	a, err := rgx.CompilePattern(*pattern)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, a.Dot(*pattern))
	return nil
}

func cmdKey(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("key", flag.ContinueOnError)
	pattern := fs.String("p", "", "regex formula pattern")
	x := fs.String("x", "", "variable to test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pattern == "" || *x == "" {
		return fmt.Errorf("-p and -x are required")
	}
	a, err := rgx.CompilePattern(*pattern)
	if err != nil {
		return err
	}
	ok, err := vsa.KeyAttribute(a, *x)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "key(%s) = %v\n", *x, ok)
	return nil
}

// stringList collects repeated flag values.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func cmdQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var atoms, equals stringList
	fs.Var(&atoms, "atom", "regex atom (repeatable)")
	fs.Var(&equals, "equal", "string equality x,y (repeatable)")
	project := fs.String("project", "", "comma-separated output variables (empty = all)")
	doc := fs.String("d", "", "document text")
	file := fs.String("f", "", "document file ('-' for stdin)")
	strategy := fs.String("strategy", "auto", "auto|canonical|automata")
	limit := fs.Int("limit", 0, "deliver at most N results, stopping the engine early (0 = all)")
	timeout := fs.Duration("timeout", 0, "abort after this long, exit "+fmt.Sprint(exitDeadline)+" (0 = none)")
	budget := fs.Int("budget", 0, "work budget in engine units (doc bytes + results), exit "+fmt.Sprint(exitBudget)+" when exceeded (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(atoms) == 0 {
		return fmt.Errorf("at least one -atom is required")
	}
	text, err := readDoc(*doc, *file)
	if err != nil {
		return err
	}
	b := spanjoin.NewQuery()
	for i, p := range atoms {
		b.AtomNamed(fmt.Sprintf("atom%d", i+1), p)
	}
	for _, eq := range equals {
		parts := strings.SplitN(eq, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-equal wants x,y; got %q", eq)
		}
		b.Equal(parts[0], parts[1])
	}
	if *project != "" {
		b.Project(strings.Split(*project, ",")...)
	}
	q, err := b.Build()
	if err != nil {
		return err
	}
	var opts []spanjoin.Option
	switch *strategy {
	case "auto":
	case "canonical":
		opts = append(opts, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	case "automata":
		opts = append(opts, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	fmt.Fprintf(stderr, "plan: %v (acyclic=%v gamma-acyclic=%v)\n",
		q.PlannedStrategy(opts...), q.IsAcyclic(), q.IsGammaAcyclic())
	if *timeout > 0 || *limit > 0 || *budget > 0 {
		// Resource-bounded queries run through a single-document corpus
		// (same plan, same document) for typed deadline/limit/budget errors.
		c := spanjoin.NewCorpus(spanjoin.WithShards(1), spanjoin.WithWorkers(1))
		c.Add(text)
		cms, err := c.Eval(context.Background(), spanjoin.OfQuery(q),
			append(opts, resilientOpts(*timeout, *limit, *budget)...)...)
		if err != nil {
			return err
		}
		defer cms.Close()
		count := 0
		for {
			m, ok := cms.Next()
			if !ok {
				break
			}
			count++
			fmt.Fprintln(stdout, m.Match)
		}
		if err := cms.Err(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%d result(s)\n", count)
		return nil
	}
	ms, err := q.Iterate(context.Background(), text, opts...)
	if err != nil {
		return err
	}
	count := 0
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		count++
		fmt.Fprintln(stdout, m)
	}
	// spanlint/closecheck: read Err after the drain loop.
	if err := ms.Err(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d result(s)\n", count)
	return nil
}
