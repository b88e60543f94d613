package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/server"
)

// get fetches a URL, failing the test on transport errors, and returns
// the response with its fully-read body.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// sampleLine matches one Prometheus text-format sample: a metric name,
// an optional label set, and a float value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? -?[0-9.eE+-]+$`)

func TestMetricsExposition(t *testing.T) {
	_, cl, url := newTestServer(t, testDocs(), server.Config{})
	// Drive some traffic so the histograms have observations.
	_ = cl
	get(t, url+"/count?q="+testPattern)
	runtime.GC() // the live heap is the last collection's

	resp, body := get(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}

	// The acceptance series: request latency histogram (buckets + sum +
	// count, so p99 is derivable), gate/cache/doc series.
	for _, want := range []string{
		`spanjoin_http_request_seconds_bucket{handler="count",le="+Inf"}`,
		`spanjoin_http_request_seconds_sum{handler="count"}`,
		`spanjoin_http_request_seconds_count{handler="count"}`,
		`spanjoin_http_requests_total{handler="count",code="200"}`,
		`spanjoin_stage_seconds_bucket{stage="count",le="+Inf"}`,
		"spanjoin_cache_hits_total",
		"spanjoin_cache_misses_total",
		`spanjoin_cache_resident{segment="probation"} 1`,
		`spanjoin_cache_resident{segment="protected"} 0`,
		"spanjoin_cache_ghosts 0",
		"spanjoin_docs ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The counted pattern's swept plan and the live heap are not empty.
	for _, name := range []string{"spanjoin_cache_bytes", "spanjoin_heap_live_bytes"} {
		m := regexp.MustCompile(`(?m)^` + name + ` ([0-9.eE+]+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Errorf("/metrics missing %s", name)
		} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %s, want > 0", name, m[1])
		}
	}
}

func TestRequestIDEchoedAndPropagated(t *testing.T) {
	_, _, url := newTestServer(t, testDocs(), server.Config{})

	// A generated ID comes back on every response.
	resp, _ := get(t, url+"/count?q="+testPattern)
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id on response")
	}

	// A client-supplied ID is echoed verbatim.
	req, _ := http.NewRequest("GET", url+"/count?q=x{a}", nil)
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-chose-this" {
		t.Fatalf("X-Request-Id = %q, want the caller's", got)
	}
}

func TestTraceParamReturnsStageBreakdown(t *testing.T) {
	_, _, url := newTestServer(t, testDocs(), server.Config{})

	resp, body := get(t, url+"/count?trace=1&q="+testPattern)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count = %d: %s", resp.StatusCode, body)
	}
	var cb server.CountBody
	if err := json.Unmarshal([]byte(body), &cb); err != nil {
		t.Fatal(err)
	}
	stages := make(map[string]bool)
	for _, s := range cb.Trace {
		stages[string(s.Stage)] = true
	}
	for _, want := range []string{"cache", "plan_build", "prefilter", "count"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, cb.Trace)
		}
	}

	// Without trace=1 the field is absent.
	_, body2 := get(t, url+"/count?q="+testPattern)
	if strings.Contains(body2, `"trace"`) {
		t.Fatalf("untraced count leaked a trace: %s", body2)
	}

	// /eval's trailer carries it too.
	_, nd := get(t, url+"/eval?trace=1&q="+testPattern)
	lines := strings.Split(strings.TrimRight(nd, "\n"), "\n")
	var tr server.Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) == 0 {
		t.Fatal("traced /eval trailer has no stages")
	}
}

func TestSlowlogOverWire(t *testing.T) {
	// Threshold 1ns: every request is slow.
	_, _, url := newTestServer(t, testDocs(), server.Config{SlowQuery: time.Nanosecond})

	for i := 0; i < 3; i++ {
		get(t, url+"/count?q="+testPattern)
	}
	resp, body := get(t, url+"/debug/slowlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/slowlog = %d", resp.StatusCode)
	}
	var sl server.SlowLogBody
	if err := json.Unmarshal([]byte(body), &sl); err != nil {
		t.Fatal(err)
	}
	if sl.ThresholdNS != 1 || sl.Total < 3 || len(sl.Entries) < 3 {
		t.Fatalf("slowlog = threshold %d, total %d, %d entries", sl.ThresholdNS, sl.Total, len(sl.Entries))
	}
	e := sl.Entries[0]
	if e.ID == "" || e.Endpoint == "" || e.Status != http.StatusOK || len(e.Stages) == 0 {
		t.Fatalf("slow entry incomplete: %+v", e)
	}

	// Disabled by default: the ring stays empty.
	_, _, url2 := newTestServer(t, testDocs(), server.Config{})
	get(t, url2+"/count?q="+testPattern)
	_, body2 := get(t, url2+"/debug/slowlog")
	var sl2 server.SlowLogBody
	if err := json.Unmarshal([]byte(body2), &sl2); err != nil {
		t.Fatal(err)
	}
	if sl2.Total != 0 || len(sl2.Entries) != 0 {
		t.Fatalf("disabled slowlog recorded entries: %+v", sl2)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	_, _, off := newTestServer(t, nil, server.Config{})
	resp, _ := get(t, off+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}

	_, _, on := newTestServer(t, nil, server.Config{EnablePprof: true})
	resp2, _ := get(t, on+"/debug/pprof/cmdline")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with EnablePprof = %d, want 200", resp2.StatusCode)
	}
}

func TestStatsIncludesMetricsSnapshot(t *testing.T) {
	_, _, url := newTestServer(t, testDocs(), server.Config{})
	get(t, url+"/count?q="+testPattern)

	_, body := get(t, url+"/stats")
	var sb server.StatsBody
	if err := json.Unmarshal([]byte(body), &sb); err != nil {
		t.Fatal(err)
	}
	// Backward-compatible fields still populate...
	if sb.Docs == 0 || sb.Shards == 0 {
		t.Fatalf("stats lost its original fields: %+v", sb)
	}
	// ...and the metrics section carries the registry with quantiles.
	var h *spanjoin.MetricPoint
	for i := range sb.Metrics {
		p := &sb.Metrics[i]
		if p.Name == "spanjoin_http_request_seconds" && p.Labels["handler"] == "count" {
			h = p
			break
		}
	}
	if h == nil {
		t.Fatalf("stats metrics missing the count latency histogram; have %d points", len(sb.Metrics))
	}
	if h.Count == 0 || h.P99Sec <= 0 {
		t.Fatalf("histogram point unpopulated: %+v", h)
	}
}
