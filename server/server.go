// Package server exposes a Corpus over HTTP/JSON: the spand query
// service. Four endpoints cover the engine's read surface —
//
//	GET /eval   paginated evaluation, NDJSON result rows + a trailer
//	            carrying the exact total and an opaque cursor token;
//	            any page costs a count of the documents the pattern's
//	            count memo has not counted plus one ranked descent
//	GET /count  exact corpus-wide result count, no enumeration
//	GET /sample i.i.d. uniform matches from the corpus-wide result set
//	GET /stats  document, cache, admission-gate, server and (for a
//	            durable corpus) durability counters
//
// — plus the write/durability surface (POST /add, GET /doc, POST
// /snapshot) and the Readiness wrapper separating "process up" from
// "corpus recovered", both documented in durable.go.
//
// Every request threads a deadline into the engine (WithTimeout, clamped
// by the server's config), and the engine's typed failure taxonomy maps
// onto HTTP statuses: ErrOverloaded → 429, an exceeded deadline → 504,
// ErrBudgetExceeded → 413 (with the partial results in the body), and a
// recovered engine panic → 500 naming the poisoned document. Admission
// control (WithMaxConcurrent/WithMaxQueue on the corpus) sheds overload
// synchronously inside the engine, before a handler spawns any worker.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"spanjoin"
	"spanjoin/internal/obs"
)

// Config tunes a Server; the zero value selects every default.
type Config struct {
	// MaxPageSize clamps the per-request result window (default 1024):
	// /eval's limit and /sample's n. Larger requests are truncated, not
	// rejected — the cursor makes the rest reachable.
	MaxPageSize int
	// DefaultTimeout bounds requests that name no timeout (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 2m).
	MaxTimeout time.Duration
	// MaxDocBytes clamps POST /add's request body (default 16 MiB);
	// larger documents answer 413 without being read fully.
	MaxDocBytes int64
	// SlowQuery is the slow-query threshold: requests at least this slow
	// are retained — with their full stage trace — in the ring served by
	// GET /debug/slowlog. ≤ 0 disables the slowlog (the default).
	SlowQuery time.Duration
	// SlowLogSize is the slowlog ring's capacity (default 128).
	SlowLogSize int
	// EnablePprof mounts the standard runtime profiles under
	// GET /debug/pprof/ — on this server's mux only, never the
	// DefaultServeMux. Off by default: profiles expose internals.
	EnablePprof bool
	// Logger, when set, gets one structured line per request: id,
	// handler, query, status, duration. nil disables request logging.
	Logger *slog.Logger
}

func (c Config) maxDocBytes() int64 {
	if c.MaxDocBytes <= 0 {
		return 16 << 20
	}
	return c.MaxDocBytes
}

func (c Config) maxPageSize() int {
	if c.MaxPageSize <= 0 {
		return 1024
	}
	return c.MaxPageSize
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 30 * time.Second
	}
	return c.DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.MaxTimeout
}

// Server serves a Corpus over HTTP. Create with New; it is safe for
// concurrent use (the corpus itself is, and the server adds only atomic
// counters).
type Server struct {
	corpus *spanjoin.Corpus
	cfg    Config
	mux    *http.ServeMux

	// Observability plumbing (see obs.go): the corpus's metrics registry
	// (the server adds its request metrics to it), the slow-query ring,
	// the optional request logger, and the request-ID mint.
	reg    *spanjoin.MetricsRegistry
	slow   *obs.SlowLog
	logger *slog.Logger
	idBase string
	reqSeq atomic.Uint64

	served atomic.Uint64 // requests answered 2xx
	failed atomic.Uint64 // requests answered with any error status
}

// New wraps a corpus in a query server.
func New(c *spanjoin.Corpus, cfg Config) *Server {
	s := &Server{
		corpus: c,
		cfg:    cfg,
		mux:    http.NewServeMux(),
		reg:    c.Metrics(),
		slow:   obs.NewSlowLog(cfg.slowLogSize(), cfg.SlowQuery),
		logger: cfg.Logger,
		idBase: strconv.FormatInt(time.Now().UnixNano(), 36),
	}
	handle := func(pattern, name string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(name, h))
	}
	handle("GET /eval", "eval", s.handleEval)
	handle("GET /count", "count", s.handleCount)
	handle("GET /sample", "sample", s.handleSample)
	handle("GET /stats", "stats", s.handleStats)
	handle("POST /add", "add", s.handleAdd)
	handle("GET /doc", "doc", s.handleDoc)
	handle("POST /snapshot", "snapshot", s.handleSnapshot)
	s.reg.Gauge("spanjoin_heap_live_bytes", "Heap bytes live after the last GC (runtime/metrics /gc/heap/live:bytes); the process's RSS follows it through the GC's heap goal.", heapLiveBytes)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	if cfg.EnablePprof {
		s.mountPprof()
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the server's HTTP handler, mountable under any mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Span is one variable binding of a result row.
type Span struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// Row is one NDJSON result line of /eval and /sample.
type Row struct {
	Doc   uint64          `json:"doc"`
	Spans map[string]Span `json:"spans"`
}

// RowOf converts a corpus match to its wire row. Exported so tests (and
// embedding services) can assert the wire encoding is byte-identical to a
// direct library evaluation.
func RowOf(cm spanjoin.CorpusMatch) Row {
	row := Row{Doc: uint64(cm.Doc), Spans: make(map[string]Span, len(cm.Match.Vars()))}
	for _, v := range cm.Match.Vars() {
		sp, _ := cm.Match.Span(v)
		text, _ := cm.Match.Substr(v)
		row.Spans[v] = Span{Start: sp.Start, End: sp.End, Text: text}
	}
	return row
}

// Stats is one /eval evaluation's prefilter/work counters on the wire.
// Scanned+Skipped+Reused is the number of documents evaluated over;
// Reused counts those whose match counts came from the pattern's count
// memo.
type Stats struct {
	Scanned      uint64 `json:"scanned"`
	Skipped      uint64 `json:"skipped"`
	SkippedIndex uint64 `json:"skipped_index"`
	Reused       uint64 `json:"reused"`
}

// statsOf converts an evaluation's counters to their wire form.
func statsOf(st spanjoin.EvalStats) *Stats {
	return &Stats{Scanned: st.Scanned, Skipped: st.Skipped, SkippedIndex: st.SkippedIndex, Reused: st.Reused}
}

// Trailer is the final NDJSON line of /eval and /sample: pagination state
// plus, when the evaluation ended early, the failure that cut it short
// (the rows before it are valid partial output).
type Trailer struct {
	Done      bool    `json:"done"`
	Delivered int     `json:"delivered"`
	Total     string  `json:"total,omitempty"` // exact decimal; valid past uint64
	Next      string  `json:"next,omitempty"`  // cursor token; empty = exhausted
	Stats     *Stats  `json:"stats,omitempty"`
	Error     string  `json:"error,omitempty"`
	Class     string  `json:"class,omitempty"`
	Doc       *uint64 `json:"doc,omitempty"` // poisoned document, panic class only
	// Trace is the request's per-stage breakdown, present when the
	// request asked with trace=1.
	Trace []spanjoin.StageSpan `json:"trace,omitempty"`
}

// ErrorBody is the JSON body of a request that failed before any result
// row was written.
type ErrorBody struct {
	Error string  `json:"error"`
	Class string  `json:"class,omitempty"`
	Doc   *uint64 `json:"doc,omitempty"`
}

// StatusOf maps an engine error onto its HTTP status: the typed taxonomy
// first (429/504/413/500/499), then ErrBadCursor and everything else —
// necessarily bad input: patterns that do not compile, malformed
// parameters — onto 400. The annotation below makes spanlint's taxonomy
// analyzer verify the switch handles every declared failure class, so a
// class added to the taxonomy cannot ship without a status mapping.
//
//spanjoin:taxonomy-map
func StatusOf(err error) int {
	switch spanjoin.FailureClass(err) {
	case spanjoin.FailureOverloaded:
		return http.StatusTooManyRequests
	case spanjoin.FailureDeadline:
		return http.StatusGatewayTimeout
	case spanjoin.FailureBudget:
		return http.StatusRequestEntityTooLarge
	case spanjoin.FailurePanic:
		return http.StatusInternalServerError
	case spanjoin.FailureCanceled:
		return 499 // client closed request (nginx convention)
	case spanjoin.FailureCorrupt:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// panicDoc extracts the poisoned document's ID from a panic-class error.
func panicDoc(err error) *uint64 {
	var pe *spanjoin.PanicError
	if errors.As(err, &pe) && pe.Doc != spanjoin.NoDoc {
		d := pe.Doc
		return &d
	}
	return nil
}

// writeError answers a request that failed before any row was streamed.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.failed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(StatusOf(err))
	json.NewEncoder(w).Encode(ErrorBody{Error: err.Error(), Class: spanjoin.FailureClass(err), Doc: panicDoc(err)})
}

// badRequest is writeError for request-validation failures.
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.writeError(w, fmt.Errorf(format, args...))
}

// timeoutOf resolves a request's deadline: the timeout parameter of its
// query q when given (clamped to MaxTimeout), the server default
// otherwise. Every evaluation gets one — no request runs unbounded.
//
// A handler parses its query string once and hands the values to every
// helper that reads a parameter.
func (s *Server) timeoutOf(q url.Values) (time.Duration, error) {
	p := q.Get("timeout")
	if p == "" {
		return s.cfg.defaultTimeout(), nil
	}
	d, err := time.ParseDuration(p)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 500ms)", p)
	}
	if m := s.cfg.maxTimeout(); d > m {
		d = m
	}
	return d, nil
}

// modeOf validates the compilation mode parameter.
func modeOf(q url.Values) (string, error) {
	switch m := q.Get("mode"); m {
	case "", "anchor":
		return "anchor", nil
	case "search":
		return "search", nil
	default:
		return "", fmt.Errorf("bad mode %q (want anchor or search)", m)
	}
}

// targetOf reads the corpus target of /count and /sample: the pattern q
// compiled under the request's mode.
func targetOf(q url.Values, what string) (spanjoin.Target, error) {
	pattern := q.Get("q")
	if pattern == "" {
		return spanjoin.Target{}, fmt.Errorf("q is required (the pattern to %s)", what)
	}
	mode, err := modeOf(q)
	if err != nil {
		return spanjoin.Target{}, err
	}
	return spanjoin.Cursor{Mode: mode, Pattern: pattern}.Target()
}

// defaultPageSize is /eval's window when the request names none.
const defaultPageSize = 100

// pageLimitOf resolves /eval's limit and /sample's n, or def when the
// request names none, against the configured page clamp.
func (s *Server) pageLimitOf(q url.Values, param string, def int) (int, error) {
	n := def
	if p := q.Get(param); p != "" {
		var err error
		if n, err = strconv.Atoi(p); err != nil || n < 1 {
			return 0, fmt.Errorf("bad %s %q (want a positive integer)", param, p)
		}
	}
	return min(n, s.cfg.maxPageSize()), nil
}

// ndjson starts a streamed NDJSON response.
func ndjson(w http.ResponseWriter, status int) *json.Encoder {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(status)
	return json.NewEncoder(w)
}

// handleEval serves one page of a corpus evaluation as NDJSON: result
// rows, then a trailer with the exact total and the next page's cursor
// token. Pagination state lives entirely in the token — the server keeps
// nothing per client. A page, first or resumed, is a counting sweep over
// the documents the pattern's count memo has not counted plus one ranked
// descent, not a re-enumeration. The corpus cache keeps the memo while it
// keeps the pattern's plan and, as a ghost, a while after: only a pattern
// it has never seen or has forgotten sweeps every document. With budget set the page instead runs
// the streaming evaluator under WithBudget/WithLimit; a spent budget
// answers 413 with the partial rows in the body.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	timeout, err := s.timeoutOf(q)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	limit, err := s.pageLimitOf(q, "limit", defaultPageSize)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}

	var cur spanjoin.Cursor
	if tok := q.Get("cursor"); tok != "" {
		if q.Get("q") != "" || q.Get("mode") != "" || q.Get("offset") != "" {
			s.badRequest(w, "cursor does not combine with q/mode/offset (the token carries all three)")
			return
		}
		if cur, err = spanjoin.ParseCursor(tok); err != nil {
			s.writeError(w, err)
			return
		}
	} else {
		pattern := q.Get("q")
		if pattern == "" {
			s.badRequest(w, "q is required (the pattern to evaluate)")
			return
		}
		mode, err := modeOf(q)
		if err != nil {
			s.badRequest(w, "%v", err)
			return
		}
		var offset uint64
		if p := q.Get("offset"); p != "" {
			if offset, err = strconv.ParseUint(p, 10, 64); err != nil {
				s.badRequest(w, "bad offset %q (want a uint64)", p)
				return
			}
		}
		cur = spanjoin.Cursor{Mode: mode, Pattern: pattern, Offset: offset}
	}

	if p := q.Get("budget"); p != "" {
		budget, err := strconv.Atoi(p)
		if err != nil || budget < 1 {
			s.badRequest(w, "bad budget %q (want a positive integer)", p)
			return
		}
		if cur.Offset > 0 {
			s.badRequest(w, "budget does not combine with offset/cursor pagination")
			return
		}
		s.evalBudgeted(w, r, q, cur, limit, budget, timeout)
		return
	}

	page, next, more, err := s.corpus.EvalCursor(r.Context(), cur, limit, spanjoin.WithTimeout(timeout))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.served.Add(1)
	enc := ndjson(w, http.StatusOK)
	for _, cm := range page.Matches {
		enc.Encode(RowOf(cm))
	}
	t := Trailer{
		Done:      true,
		Delivered: len(page.Matches),
		Total:     page.Total.String(),
		Stats:     statsOf(page.Stats),
		Trace:     traceSpans(r, q),
	}
	if more {
		t.Next = next.Token()
	}
	enc.Encode(t)
}

// evalBudgeted runs /eval's streaming mode: the whole window is collected
// under the work budget before any byte is written, so a budget (or
// deadline, or panic) that fires mid-evaluation still maps onto a real
// HTTP status — 413 carrying the partial rows, per the error contract.
func (s *Server) evalBudgeted(w http.ResponseWriter, r *http.Request, q url.Values, cur spanjoin.Cursor, limit, budget int, timeout time.Duration) {
	target, err := cur.Target()
	if err != nil {
		s.writeError(w, err)
		return
	}
	ms, err := s.corpus.Eval(r.Context(), target, spanjoin.WithTimeout(timeout), spanjoin.WithLimit(limit), spanjoin.WithBudget(budget))
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer ms.Close()
	rows := make([]Row, 0, limit)
	for {
		cm, ok := ms.Next()
		if !ok {
			break
		}
		rows = append(rows, RowOf(cm))
	}
	evalErr := ms.Err()
	st := ms.Stats()

	status := http.StatusOK
	if evalErr != nil {
		status = StatusOf(evalErr)
		s.failed.Add(1)
	} else {
		s.served.Add(1)
	}
	enc := ndjson(w, status)
	for i := range rows {
		enc.Encode(rows[i])
	}
	t := Trailer{
		Done:      evalErr == nil,
		Delivered: len(rows),
		Stats:     statsOf(st),
		Trace:     traceSpans(r, q),
	}
	if evalErr != nil {
		t.Error = evalErr.Error()
		t.Class = spanjoin.FailureClass(evalErr)
		t.Doc = panicDoc(evalErr)
	}
	enc.Encode(t)
}

// CountBody is /count's response.
type CountBody struct {
	Count json.Number `json:"count"` // exact decimal; valid past uint64
	// Trace is the request's per-stage breakdown, present with trace=1.
	Trace []spanjoin.StageSpan `json:"trace,omitempty"`
}

// handleCount serves the exact corpus-wide result count — the count
// kernel through the shard workers, no enumeration anywhere.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	target, err := targetOf(q, "count")
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	timeout, err := s.timeoutOf(q)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	n, err := s.corpus.Count(r.Context(), target, spanjoin.WithTimeout(timeout))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CountBody{Count: json.Number(n.String()), Trace: traceSpans(r, q)})
}

// handleSample serves n i.i.d. uniform matches from the corpus-wide
// result set as NDJSON rows plus a trailer. The same seed draws the same
// matches, so sampling is reproducible over the wire.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	target, err := targetOf(q, "sample")
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	timeout, err := s.timeoutOf(q)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	n, err := s.pageLimitOf(q, "n", 1)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	seed := int64(1)
	if p := q.Get("seed"); p != "" {
		if seed, err = strconv.ParseInt(p, 10, 64); err != nil || seed < 0 {
			s.badRequest(w, "bad seed %q (want a non-negative integer)", p)
			return
		}
	}
	ms, err := s.corpus.Sample(r.Context(), target, rand.New(rand.NewSource(seed)), n, spanjoin.WithTimeout(timeout))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.served.Add(1)
	enc := ndjson(w, http.StatusOK)
	for _, cm := range ms {
		enc.Encode(RowOf(cm))
	}
	enc.Encode(Trailer{Done: true, Delivered: len(ms), Trace: traceSpans(r, q)})
}

// StatsBody is /stats' response: corpus shape, compiled-query cache,
// admission gate and server request counters.
type StatsBody struct {
	Docs    int  `json:"docs"`
	Shards  int  `json:"shards"`
	Indexed bool `json:"indexed"`
	Cache   struct {
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		Resident int     `json:"resident"`
		Bytes    int     `json:"bytes"`
		HitRate  float64 `json:"hit_rate"`
	} `json:"cache"`
	Gate struct {
		Active   int64  `json:"active"`
		Queued   int    `json:"queued"`
		Rejected uint64 `json:"rejected"`
	} `json:"gate"`
	Server struct {
		Served uint64 `json:"served"`
		Failed uint64 `json:"failed"`
	} `json:"server"`
	// Durability is present only for a corpus opened from a data
	// directory (spand -data); RAM corpora omit the section.
	Durability *spanjoin.DurabilityStats `json:"durability,omitempty"`
	// Metrics is the registry snapshot — every series /metrics exposes,
	// with exact p50/p90/p99 precomputed for histograms. /metrics is the
	// machine-readable (Prometheus) superset; this section serves humans
	// and tests. Earlier fields are unchanged, so pre-existing /stats
	// consumers keep working.
	Metrics []spanjoin.MetricPoint `json:"metrics"`
}

// handleStats serves the operational counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var b StatsBody
	b.Docs = s.corpus.Len()
	b.Shards = s.corpus.NumShards()
	b.Indexed = s.corpus.Indexed()
	cs := s.corpus.CacheStats()
	b.Cache.Hits, b.Cache.Misses, b.Cache.Resident, b.Cache.Bytes, b.Cache.HitRate = cs.Hits, cs.Misses, cs.Resident, cs.Bytes, cs.HitRate()
	gs := s.corpus.GateStats()
	b.Gate.Active, b.Gate.Queued, b.Gate.Rejected = gs.Active, gs.Queued, gs.Rejected
	b.Server.Served, b.Server.Failed = s.served.Load(), s.failed.Load()
	if s.corpus.Durable() {
		ds := s.corpus.DurabilityStats()
		b.Durability = &ds
	}
	b.Metrics = s.reg.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(b)
}
