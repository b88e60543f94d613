package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"spanjoin/server"
)

// maxConns is the number of connections the load generator may hold:
// one per core of the two-core hosts the offered rates were set on.
const maxConns = 2

// opResult is one request as the load generator saw it, plus what the
// checks need from its response.
type opResult struct {
	kind     opKind
	due      time.Time     // when the schedule wanted the request sent
	done     time.Time     // when its response was fully read
	late     time.Duration // dispatch time minus due time
	connWait time.Duration // wait for one of the maxConns connections
	err      error         // transport, status or decode failure
	failure  error         // first failed check (err included)
	bytes    int           // response body size

	rows    []server.Row
	trailer server.Trailer
	count   string
	addID   uint64
}

func (r *opResult) fail(err error) {
	if err != nil && r.failure == nil {
		r.failure = err
	}
}

// latency is the op's time from due to done: a stall that delays later
// requests is charged to them.
func (r *opResult) latency() time.Duration { return r.done.Sub(r.due) }

// loadClient issues requests to one spand over at most maxConns connections.
type loadClient struct {
	base  string
	http  *http.Client
	conns chan struct{} // semaphore: one token per connection
}

func newLoadClient(addr string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &loadClient{base: "http://" + addr, http: &http.Client{Transport: tr}, conns: make(chan struct{}, maxConns)}
}

func (d *loadClient) close() { d.http.CloseIdleConnections() }

// do sends one request on a free connection and returns its body.
func (d *loadClient) do(ctx context.Context, r *opResult, method, path string, body []byte) ([]byte, error) {
	t0 := time.Now()
	select {
	case d.conns <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-d.conns }()
	if r != nil {
		r.connWait = time.Since(t0)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// decodeRows splits an NDJSON /eval or /sample body into rows and trailer.
func decodeRows(b []byte) ([]server.Row, server.Trailer, error) {
	var rows []server.Row
	var t server.Trailer
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, t, err
	}
	if len(lines) == 0 {
		return nil, t, fmt.Errorf("empty NDJSON body")
	}
	for _, l := range lines[:len(lines)-1] {
		var row server.Row
		if err := json.Unmarshal(l, &row); err != nil {
			return nil, t, fmt.Errorf("bad row %q: %w", l, err)
		}
		rows = append(rows, row)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &t); err != nil {
		return nil, t, fmt.Errorf("bad trailer: %w", err)
	}
	return rows, t, nil
}

// evalPath is the first-page request of a search-mode pattern.
func evalPath(pattern string) string {
	return "/eval?" + url.Values{"q": {pattern}, "mode": {"search"}, "limit": {strconv.Itoa(pageLimit)}}.Encode()
}

// cursorPath is the cursor-page request that resumes a crawl.
func cursorPath(cursor string) string {
	return "/eval?" + url.Values{"cursor": {cursor}, "limit": {strconv.Itoa(pageLimit)}}.Encode()
}

func countPath(pattern string) string {
	return "/count?" + url.Values{"q": {pattern}, "mode": {"search"}}.Encode()
}

func samplePath(pattern string, seed int) string {
	return "/sample?" + url.Values{"q": {pattern}, "mode": {"search"}, "n": {strconv.Itoa(sampleN)}, "seed": {strconv.Itoa(seed)}}.Encode()
}

// runOp issues one op and decodes its response into r.
func (d *loadClient) runOp(ctx context.Context, r *opResult, j job, cursor string, sampleSeed int) {
	var (
		b   []byte
		err error
	)
	switch r.kind {
	case opEvalFirst:
		b, err = d.do(ctx, r, http.MethodGet, evalPath(j.Pattern), nil)
	case opEvalNext:
		b, err = d.do(ctx, r, http.MethodGet, cursorPath(cursor), nil)
	case opCount:
		b, err = d.do(ctx, r, http.MethodGet, countPath(j.Pattern), nil)
	case opSample:
		b, err = d.do(ctx, r, http.MethodGet, samplePath(j.Pattern, sampleSeed), nil)
	case opAdd:
		b, err = d.do(ctx, r, http.MethodPost, "/add", []byte(j.Doc))
	}
	r.done = time.Now()
	r.bytes = len(b)
	if err != nil {
		r.err = err
		return
	}
	switch r.kind {
	case opEvalFirst, opEvalNext, opSample:
		r.rows, r.trailer, r.err = decodeRows(b)
	case opCount:
		var cb server.CountBody
		if r.err = json.Unmarshal(b, &cb); r.err == nil {
			r.count = cb.Count.String()
		}
	case opAdd:
		var ab server.AddBody
		if r.err = json.Unmarshal(b, &ab); r.err == nil {
			r.addID = ab.ID
		}
	}
}

// runJob issues a job's ops in order; a crawl's next page is due when the
// previous page returned, and the crawl ends early when a page hands out
// no cursor.
func (d *loadClient) runJob(ctx context.Context, ji int, j job, due time.Time, late time.Duration) []*opResult {
	var out []*opResult
	cursor := ""
	for p := 0; p < j.ops(); p++ {
		r := &opResult{kind: j.Kind, due: due}
		if p == 0 {
			r.late = late
		} else {
			r.kind = opEvalNext
		}
		d.runOp(ctx, r, j, cursor, ji)
		out = append(out, r)
		if r.err != nil || r.kind == opAdd || r.trailer.Next == "" {
			break
		}
		cursor, due = r.trailer.Next, r.done
	}
	return out
}

// loadStats describes how faithfully the generator kept its schedule.
type loadStats struct {
	start    time.Time     // the window's time zero
	end      time.Time     // the last response
	backlog  int           // jobs still in flight when the last one was dispatched
	maxDepth int           // most jobs in flight at once
	lateMax  time.Duration // worst dispatch lateness
}

// runOpenLoop dispatches every job at its due time — open loop: a slow
// server does not slow the arrivals — and waits for all of them.
func (d *loadClient) runOpenLoop(ctx context.Context, jobs []job) ([][]*opResult, loadStats) {
	results := make([][]*opResult, len(jobs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inFlight int
		st       loadStats
	)
	st.start = time.Now().Add(20 * time.Millisecond)
	for ji, j := range jobs {
		due := st.start.Add(j.Due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := time.Since(due)
		if late > st.lateMax {
			st.lateMax = late
		}
		mu.Lock()
		inFlight++
		if inFlight > st.maxDepth {
			st.maxDepth = inFlight
		}
		mu.Unlock()
		wg.Add(1)
		go func(ji int, j job, due time.Time, late time.Duration) {
			defer wg.Done()
			rs := d.runJob(ctx, ji, j, due, late)
			mu.Lock()
			results[ji] = rs
			inFlight--
			mu.Unlock()
		}(ji, j, due, late)
	}
	mu.Lock()
	st.backlog = inFlight
	mu.Unlock()
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			if r.done.After(st.end) {
				st.end = r.done
			}
		}
	}
	return results, st
}

// runClosed issues jobs one after another (warmup; never measured).
func (d *loadClient) runClosed(ctx context.Context, jobs []job) error {
	for ji, j := range jobs {
		for _, r := range d.runJob(ctx, ji, j, time.Now(), 0) {
			if r.err != nil {
				return fmt.Errorf("warmup %s %q: %w", r.kind, j.Pattern, r.err)
			}
		}
	}
	return nil
}

// fetchDoc reads one document back through GET /doc.
func (d *loadClient) fetchDoc(ctx context.Context, id uint64) (string, error) {
	b, err := d.do(ctx, nil, http.MethodGet, "/doc?id="+strconv.FormatUint(id, 10), nil)
	if err != nil {
		return "", err
	}
	var db server.DocBody
	if err := json.Unmarshal(b, &db); err != nil {
		return "", fmt.Errorf("bad /doc body: %w", err)
	}
	return db.Text, nil
}

// stats reads spand's /stats.
func (d *loadClient) stats(ctx context.Context) (server.StatsBody, error) {
	var sb server.StatsBody
	b, err := d.do(ctx, nil, http.MethodGet, "/stats", nil)
	if err != nil {
		return sb, err
	}
	return sb, json.Unmarshal(b, &sb)
}
