package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"spanjoin"
	"spanjoin/server"
)

// The checks compare every response with answers the library computes
// directly over the generated documents: no corpus, shard, prefilter,
// pagination or server code is involved in the expected values.

// bounds is the range a pattern's corpus-wide total may take: exact on a
// read-only corpus; [initial, final] while documents are being added.
type bounds struct{ lo, hi uint64 }

// oracle answers "what should spand have said" for one run.
type oracle struct {
	initial []string // documents spand loaded at start
	adds    []string // documents the schedule adds
	known   map[string]bool

	mu       sync.Mutex
	spanners map[string]*spanjoin.Spanner
	evals    map[evalKey]map[string]bool // row key set of Eval(pattern, doc)
}

type evalKey struct{ pattern, doc string }

func newOracle(initial, adds []string) *oracle {
	known := make(map[string]bool, len(initial)+len(adds))
	for _, d := range initial {
		known[d] = true
	}
	for _, d := range adds {
		known[d] = true
	}
	return &oracle{initial: initial, adds: adds, known: known,
		spanners: make(map[string]*spanjoin.Spanner), evals: make(map[evalKey]map[string]bool)}
}

func (o *oracle) spanner(pattern string) (*spanjoin.Spanner, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if sp, ok := o.spanners[pattern]; ok {
		return sp, nil
	}
	sp, err := spanjoin.CompileSearch(pattern)
	if err != nil {
		return nil, fmt.Errorf("compiling %q: %w", pattern, err)
	}
	o.spanners[pattern] = sp
	return sp, nil
}

// countDocs sums the pattern's per-document counts. With a literal, a
// document lacking it contributes 0 without being evaluated; a pattern
// whose literal occurs nowhere is never compiled.
func (o *oracle) countDocs(pattern, literal string, docs []string) (uint64, error) {
	var sp *spanjoin.Spanner
	var total uint64
	for _, d := range docs {
		if literal != "" && !strings.Contains(d, literal) {
			continue
		}
		if sp == nil {
			var err error
			if sp, err = o.spanner(pattern); err != nil {
				return 0, err
			}
		}
		n, err := sp.Count(d)
		if err != nil {
			return 0, fmt.Errorf("counting %q: %w", pattern, err)
		}
		u, ok := n.Uint64()
		if !ok {
			return 0, fmt.Errorf("count of %q overflows uint64", pattern)
		}
		total += u
	}
	return total, nil
}

// expect computes the bounds of every read job's pattern, on two workers.
func (o *oracle) expect(jobs []job) (map[string]bounds, error) {
	type req struct{ pattern, literal string }
	seen := make(map[string]bool)
	var reqs []req
	for _, j := range jobs {
		if j.Kind != opAdd && !seen[j.Pattern] {
			seen[j.Pattern] = true
			reqs = append(reqs, req{j.Pattern, j.Literal})
		}
	}
	out := make(map[string]bounds, len(reqs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				lo, err := o.countDocs(reqs[i].pattern, reqs[i].literal, o.initial)
				var extra uint64
				if err == nil {
					extra, err = o.countDocs(reqs[i].pattern, reqs[i].literal, o.adds)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[reqs[i].pattern] = bounds{lo, lo + extra}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, firstErr
}

// rowKey is a result row's identity within one document: every variable's
// span, in variable order.
func rowKey(spans map[string]server.Span) string {
	vars := sortedKeys(spans)
	var b strings.Builder
	for _, v := range vars {
		s := spans[v]
		fmt.Fprintf(&b, "%s:%d-%d;", v, s.Start, s.End)
	}
	return b.String()
}

// evalSet is the row key set of the pattern's matches in one document.
func (o *oracle) evalSet(pattern, doc string) (map[string]bool, error) {
	o.mu.Lock()
	set, ok := o.evals[evalKey{pattern, doc}]
	o.mu.Unlock()
	if ok {
		return set, nil
	}
	sp, err := o.spanner(pattern)
	if err != nil {
		return nil, err
	}
	ms, err := sp.Eval(doc)
	if err != nil {
		return nil, fmt.Errorf("evaluating %q: %w", pattern, err)
	}
	set = make(map[string]bool, len(ms))
	for _, m := range ms {
		spans := make(map[string]server.Span)
		for _, v := range m.Vars() {
			s, _ := m.Span(v)
			spans[v] = server.Span{Start: s.Start, End: s.End}
		}
		set[rowKey(spans)] = true
	}
	o.mu.Lock()
	o.evals[evalKey{pattern, doc}] = set
	o.mu.Unlock()
	return set, nil
}

// checkRow verifies one returned row against Eval on its document: the
// document must be one the benchmark generated, each span's text must be
// the document's bytes (spans are 1-based, [Start, End⟩), and the span
// tuple must be one of Eval's matches.
func (o *oracle) checkRow(pattern string, row server.Row, doc string) error {
	if !o.known[doc] {
		return fmt.Errorf("row names doc %d, whose text the benchmark never generated", row.Doc)
	}
	for v, s := range row.Spans {
		if s.Start < 1 || s.End < s.Start || s.End > len(doc)+1 || doc[s.Start-1:s.End-1] != s.Text {
			return fmt.Errorf("doc %d: span %s=[%d,%d) text %q does not match the document", row.Doc, v, s.Start, s.End, s.Text)
		}
	}
	set, err := o.evalSet(pattern, doc)
	if err != nil {
		return err
	}
	if !set[rowKey(row.Spans)] {
		return fmt.Errorf("doc %d: row %s is not a match of %q", row.Doc, rowKey(row.Spans), pattern)
	}
	return nil
}

// checkTotal verifies a reported total against the pattern's bounds.
func checkTotal(what string, got string, b bounds) (uint64, error) {
	n, err := strconv.ParseUint(got, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad total %q", what, got)
	}
	if n < b.lo || n > b.hi {
		if b.lo == b.hi {
			return n, fmt.Errorf("%s: total %d, want %d", what, n, b.lo)
		}
		return n, fmt.Errorf("%s: total %d outside [%d, %d]", what, n, b.lo, b.hi)
	}
	return n, nil
}

// checkPage verifies one /eval page at the given offset: its total, its
// size (a full page unless the window runs off the end), and whether it
// hands out a cursor exactly when results remain.
func checkPage(r *opResult, offset uint64, b bounds) error {
	t := r.trailer
	if !t.Done || t.Error != "" {
		return fmt.Errorf("page ended early: %s", t.Error)
	}
	total, err := checkTotal("eval page", t.Total, b)
	if err != nil {
		return err
	}
	want := uint64(pageLimit)
	if offset >= total {
		want = 0
	} else if total-offset < want {
		want = total - offset
	}
	if uint64(len(r.rows)) != want || t.Delivered != len(r.rows) {
		return fmt.Errorf("page at offset %d of %d: %d rows (trailer says %d), want %d", offset, total, len(r.rows), t.Delivered, want)
	}
	if more := offset+want < total; more != (t.Next != "") {
		return fmt.Errorf("page at offset %d of %d: cursor present = %v, want %v", offset, total, t.Next != "", more)
	}
	return nil
}

// checkSession verifies that no row repeats across a crawl's pages.
func checkSession(pages []*opResult) error {
	seen := make(map[string]int)
	for i, p := range pages {
		for _, row := range p.rows {
			k := strconv.FormatUint(row.Doc, 10) + "|" + rowKey(row.Spans)
			if j, dup := seen[k]; dup {
				return fmt.Errorf("row doc %d %s served on page %d and again on page %d", row.Doc, rowKey(row.Spans), j, i)
			}
			seen[k] = i
		}
	}
	return nil
}

// checkSample verifies a /sample response's size.
func checkSample(r *opResult, b bounds) error {
	if !r.trailer.Done || r.trailer.Error != "" {
		return fmt.Errorf("sample ended early: %s", r.trailer.Error)
	}
	want := sampleN
	if b.hi == 0 {
		want = 0
	}
	if len(r.rows) != want || r.trailer.Delivered != want {
		return fmt.Errorf("sample: %d rows (trailer says %d), want %d", len(r.rows), r.trailer.Delivered, want)
	}
	return nil
}

// checkRun applies every check to a finished run. docText resolves a
// DocID to its text as spand serves it (GET /doc); the per-op outcome is
// written to each result's failure field.
func checkRun(o *oracle, exp map[string]bounds, jobs []job, results [][]*opResult, docText func(uint64) (string, error)) {
	addIDs := make(map[uint64]int)
	for ji, rs := range results {
		j := jobs[ji]
		for pi, r := range rs {
			if r.err != nil {
				r.fail(r.err)
				continue
			}
			b := exp[j.Pattern]
			switch r.kind {
			case opCount:
				_, err := checkTotal("count", r.count, b)
				r.fail(err)
			case opEvalFirst, opEvalNext:
				r.fail(checkPage(r, uint64(pi*pageLimit), b))
			case opSample:
				r.fail(checkSample(r, b))
			case opAdd:
				if prev, dup := addIDs[r.addID]; dup {
					r.fail(fmt.Errorf("add acknowledged as doc %d, already the ID of job %d", r.addID, prev))
					continue
				}
				addIDs[r.addID] = ji
				got, err := docText(r.addID)
				if err == nil && got != j.Doc {
					err = fmt.Errorf("doc %d reads back %d bytes, not the %d acknowledged", r.addID, len(got), len(j.Doc))
				}
				r.fail(err)
			}
			if r.failure != nil {
				continue
			}
			for _, row := range r.rows {
				doc, err := docText(row.Doc)
				if err == nil {
					err = o.checkRow(j.Pattern, row, doc)
				}
				if err != nil {
					r.fail(err)
					break
				}
			}
		}
		if len(rs) > 1 {
			if err := checkSession(rs); err != nil {
				rs[len(rs)-1].fail(err)
			}
		}
	}
}

// failureSummary lists the distinct check failures, most frequent first.
func failureSummary(results [][]*opResult) []string {
	n := make(map[string]int)
	for _, rs := range results {
		for _, r := range rs {
			if r.failure != nil {
				n[r.kind.String()+": "+r.failure.Error()]++
			}
		}
	}
	msgs := sortedKeys(n)
	sort.SliceStable(msgs, func(a, b int) bool { return n[msgs[a]] > n[msgs[b]] })
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = fmt.Sprintf("%d× %s", n[m], m)
	}
	return out
}
