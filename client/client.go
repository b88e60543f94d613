// Package client is the Go client for the spand query service
// (spanjoin/server): typed requests and responses for /eval, /count,
// /sample and /stats, automatic retry with exponential backoff for
// retryable failures (connection errors, 429 sheds, 503s), and connection
// reuse through one shared keep-alive transport — many requests, few TCP
// handshakes.
//
// The server's failure taxonomy round-trips: a 429 surfaces as an error
// matching spanjoin.ErrOverloaded, a 504 as context.DeadlineExceeded, a
// 413 as spanjoin.ErrBudgetExceeded — errors.Is works on a RemoteError
// exactly as it does against the library, so callers move between
// embedded and remote evaluation without changing their error handling.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"spanjoin"
)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, instrumentation, test doubles). The default client shares
// one keep-alive transport across every request.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a retryable request is re-sent after
// its first failure (default 3; 0 disables retry).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the first retry's delay (default 50ms); each further
// retry doubles it, with ±25% jitter so synchronized clients do not
// re-stampede a shedding server.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// Client talks to one spand server. It is safe for concurrent use.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	backoff time.Duration
	jitter  func() float64 // 0..1; swapped out by tests for determinism
}

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base: u,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}},
		retries: 3,
		backoff: 50 * time.Millisecond,
		jitter:  rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Span is one variable binding of a result row.
type Span struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// Match is one result row: the document it came from and its variable
// bindings.
type Match struct {
	Doc   uint64          `json:"doc"`
	Spans map[string]Span `json:"spans"`
}

// Stats mirrors one evaluation's prefilter counters.
type Stats struct {
	Scanned      uint64 `json:"scanned"`
	Skipped      uint64 `json:"skipped"`
	SkippedIndex uint64 `json:"skipped_index"`
	Reused       uint64 `json:"reused"`
}

// Page is one /eval response: the window's matches, the exact total (nil
// in budget mode, which skips the counting sweep), the next page's cursor
// token ("" when the sequence is exhausted), and the evaluation counters.
type Page struct {
	Matches []Match
	Total   *big.Int
	Next    string
	Stats   Stats
	// Trace is the server's per-stage timing breakdown, present only when
	// the request set EvalRequest.Trace.
	Trace []spanjoin.StageSpan
	// RequestID is the server's ID for this request (the X-Request-Id
	// response header), correlating the page with server logs and the
	// slow-query log.
	RequestID string
}

// EvalRequest parameterizes /eval. Zero values mean "server default".
type EvalRequest struct {
	// Pattern is the query; required unless Cursor resumes a prior page.
	Pattern string
	// Mode is "anchor" (whole-document, default) or "search" (substring).
	Mode string
	// Offset is the rank of the window's first result.
	Offset uint64
	// Cursor resumes pagination from a prior page's Next token; it
	// carries pattern, mode and offset, which must then be left zero.
	Cursor string
	// Limit is the window size (clamped by the server).
	Limit int
	// Timeout bounds the evaluation server-side (clamped by the server).
	Timeout time.Duration
	// Budget, when > 0, bounds the evaluation's work server-side; a spent
	// budget returns the partial page alongside an error matching
	// spanjoin.ErrBudgetExceeded.
	Budget int
	// Trace asks the server for the per-stage timing breakdown, returned
	// on Page.Trace.
	Trace bool
}

// RemoteError is a failure reported by the server, carrying the HTTP
// status, the engine's failure class, and — for recovered engine panics —
// the poisoned document's ID.
type RemoteError struct {
	Status  int
	Class   string
	Message string
	Doc     *uint64
	// RequestID is the server's ID for the failed request (the
	// X-Request-Id response header) — quote it when reporting the failure
	// and the operator can find the exact request in the server's logs and
	// slow-query ring. Empty when the failure never reached the server.
	RequestID string
}

func (e *RemoteError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("spand: %s (status %d, class %q, request %s)", e.Message, e.Status, e.Class, e.RequestID)
	}
	return fmt.Sprintf("spand: %s (status %d, class %q)", e.Message, e.Status, e.Class)
}

// Unwrap maps the failure class back onto the engine's typed sentinels,
// so errors.Is(err, spanjoin.ErrOverloaded) and friends work across the
// wire.
func (e *RemoteError) Unwrap() error {
	switch e.Class {
	case spanjoin.FailureOverloaded:
		return spanjoin.ErrOverloaded
	case spanjoin.FailureDeadline:
		return context.DeadlineExceeded
	case spanjoin.FailureBudget:
		return spanjoin.ErrBudgetExceeded
	case spanjoin.FailureCanceled:
		return context.Canceled
	case spanjoin.FailureCorrupt:
		return spanjoin.ErrCorrupt
	}
	return nil
}

// retryable reports whether a failed attempt is worth re-sending: network
// errors (the connection may have died under keep-alive), 429 (a shed is
// explicitly cheap and retryable) and 503. Budget, deadline and client
// errors are not — the retry would fail identically or double-spend.
func retryable(status int, err error) bool {
	if err != nil {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do issues one GET with the retry/backoff policy and returns the first
// non-retryable (or final) response. The caller owns the body.
func (c *Client) do(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = q.Encode()
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		status := 0
		if err == nil {
			status = resp.StatusCode
			if status < 400 {
				return resp, nil
			}
			if !retryable(status, nil) || attempt >= c.retries {
				return resp, nil // the caller decodes the error body
			}
			// Retryable error status: the body is small, drain it so the
			// connection is reused for the retry.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = &RemoteError{Status: status, Message: http.StatusText(status), RequestID: resp.Header.Get(requestIDHeader)}
		} else {
			if !retryable(0, err) || attempt >= c.retries {
				return nil, err
			}
			lastErr = err
		}
		d := c.backoff << attempt
		d += time.Duration((c.jitter() - 0.5) * 0.5 * float64(d))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		}
	}
}

// requestIDHeader is the server's per-request ID header, echoed on every
// response.
const requestIDHeader = "X-Request-Id"

// decodeError turns an error-status response into a *RemoteError.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var b struct {
		Error string  `json:"error"`
		Class string  `json:"class"`
		Doc   *uint64 `json:"doc"`
	}
	id := resp.Header.Get(requestIDHeader)
	msg := http.StatusText(resp.StatusCode)
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&b); err == nil && b.Error != "" {
		return &RemoteError{Status: resp.StatusCode, Class: b.Class, Message: b.Error, Doc: b.Doc, RequestID: id}
	}
	return &RemoteError{Status: resp.StatusCode, Message: msg, RequestID: id}
}

// trailerLine mirrors the server's NDJSON trailer.
type trailerLine struct {
	Done      bool                 `json:"done"`
	Delivered int                  `json:"delivered"`
	Total     string               `json:"total"`
	Next      string               `json:"next"`
	Stats     *Stats               `json:"stats"`
	Trace     []spanjoin.StageSpan `json:"trace"`
	Error     string               `json:"error"`
	Class     string               `json:"class"`
	Doc       *uint64              `json:"doc"`
}

// decodePage parses an NDJSON row stream plus trailer. A trailer carrying
// an error (budget mode's partial pages) returns the page alongside the
// reconstructed typed error.
func decodePage(resp *http.Response) (*Page, error) {
	defer resp.Body.Close()
	page := &Page{RequestID: resp.Header.Get(requestIDHeader)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var tr *trailerLine
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var t trailerLine
		// Rows never carry "done"/"error"/"delivered"; probing for the
		// trailer first keeps row decoding unambiguous.
		if err := json.Unmarshal(line, &t); err == nil && (t.Done || t.Error != "" || t.Stats != nil) {
			tr = &t
			continue
		}
		var m Match
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("client: bad result row %q: %w", line, err)
		}
		page.Matches = append(page.Matches, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if tr == nil {
		return nil, fmt.Errorf("client: response ended without a trailer (truncated stream?)")
	}
	if tr.Total != "" {
		t, ok := new(big.Int).SetString(tr.Total, 10)
		if !ok {
			return nil, fmt.Errorf("client: bad total %q", tr.Total)
		}
		page.Total = t
	}
	page.Next = tr.Next
	if tr.Stats != nil {
		page.Stats = *tr.Stats
	}
	page.Trace = tr.Trace
	if tr.Error != "" {
		return page, &RemoteError{Status: resp.StatusCode, Class: tr.Class, Message: tr.Error, Doc: tr.Doc, RequestID: page.RequestID}
	}
	return page, nil
}

// evalQuery renders an EvalRequest as URL parameters.
func evalQuery(req EvalRequest) (url.Values, error) {
	q := url.Values{}
	if req.Cursor != "" {
		if req.Pattern != "" || req.Mode != "" || req.Offset != 0 {
			return nil, fmt.Errorf("client: Cursor does not combine with Pattern/Mode/Offset")
		}
		q.Set("cursor", req.Cursor)
	} else {
		if req.Pattern == "" {
			return nil, fmt.Errorf("client: Pattern or Cursor is required")
		}
		q.Set("q", req.Pattern)
		if req.Mode != "" {
			q.Set("mode", req.Mode)
		}
		if req.Offset > 0 {
			q.Set("offset", strconv.FormatUint(req.Offset, 10))
		}
	}
	if req.Limit > 0 {
		q.Set("limit", strconv.Itoa(req.Limit))
	}
	if req.Timeout > 0 {
		q.Set("timeout", req.Timeout.String())
	}
	if req.Budget > 0 {
		q.Set("budget", strconv.Itoa(req.Budget))
	}
	if req.Trace {
		q.Set("trace", "1")
	}
	return q, nil
}

// Eval fetches one page of a corpus evaluation. Follow pagination by
// re-calling with EvalRequest{Cursor: page.Next} until Next is empty. In
// budget mode a partial page is returned alongside its typed error —
// check both.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (*Page, error) {
	q, err := evalQuery(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, "/eval", q)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 && !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		return nil, decodeError(resp)
	}
	return decodePage(resp)
}

// EvalAll drains a paginated evaluation, following cursor tokens until
// the sequence is exhausted. Intended for result sets that fit in memory;
// for anything larger, page explicitly with Eval.
func (c *Client) EvalAll(ctx context.Context, req EvalRequest) ([]Match, error) {
	var out []Match
	for {
		page, err := c.Eval(ctx, req)
		if err != nil {
			return out, err
		}
		out = append(out, page.Matches...)
		if page.Next == "" {
			return out, nil
		}
		req = EvalRequest{Cursor: page.Next, Limit: req.Limit, Timeout: req.Timeout, Trace: req.Trace}
	}
}

// Count fetches the exact corpus-wide result count of pattern under mode
// ("anchor" or "search"; "" = anchor). Counts beyond uint64 arrive exact.
func (c *Client) Count(ctx context.Context, pattern, mode string, timeout time.Duration) (*big.Int, error) {
	q := url.Values{"q": {pattern}}
	if mode != "" {
		q.Set("mode", mode)
	}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
	}
	resp, err := c.do(ctx, "/count", q)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var b struct {
		Count json.Number `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		return nil, fmt.Errorf("client: bad /count response: %w", err)
	}
	n, ok := new(big.Int).SetString(b.Count.String(), 10)
	if !ok {
		return nil, fmt.Errorf("client: bad count %q", b.Count)
	}
	return n, nil
}

// Sample fetches n matches drawn i.i.d. uniformly from the corpus-wide
// result set; the same seed draws the same matches.
func (c *Client) Sample(ctx context.Context, pattern, mode string, n int, seed int64) ([]Match, error) {
	q := url.Values{"q": {pattern}, "n": {strconv.Itoa(n)}, "seed": {strconv.FormatInt(seed, 10)}}
	if mode != "" {
		q.Set("mode", mode)
	}
	resp, err := c.do(ctx, "/sample", q)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, decodeError(resp)
	}
	page, err := decodePage(resp)
	if err != nil {
		return nil, err
	}
	return page.Matches, nil
}

// ServerStats mirrors /stats.
type ServerStats struct {
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
}

// Stats fetches the server's operational counters.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	resp, err := c.do(ctx, "/stats", url.Values{})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var s ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("client: bad /stats response: %w", err)
	}
	return &s, nil
}
