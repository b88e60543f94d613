package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime/metrics"
	"strconv"
	"time"

	"spanjoin"
	"spanjoin/internal/obs"
)

// Observability surface of the server:
//
//	GET /metrics        Prometheus text exposition of the corpus registry
//	                    plus the server's own request metrics — the
//	                    machine-readable superset of /stats
//	GET /debug/slowlog  the most recent slow queries (ring buffer), each
//	                    with its full per-stage trace; Config.SlowQuery
//	                    sets the threshold
//	GET /debug/pprof/*  the standard profiles, mounted only with
//	                    Config.EnablePprof
//
// Every request gets an ID — taken from the client's X-Request-Id when
// present, generated otherwise — echoed in the X-Request-Id response
// header (so client errors correlate with server logs and the slowlog)
// and a per-stage trace on its context. Handlers answering query
// endpoints return the trace on the wire when the request asks with
// trace=1.

// requestIDHeader carries the per-request ID in both directions.
const requestIDHeader = "X-Request-Id"

func (c Config) slowLogSize() int {
	if c.SlowLogSize <= 0 {
		return 128
	}
	return c.SlowLogSize
}

// instrument wraps a handler with the per-request plumbing: ID, trace,
// latency histogram, (handler, code) request counter, structured log
// line, and the slow-query ring. The histogram is registered once per
// handler at mux-build time; the counter series materializes lazily per
// status code actually answered (registration is idempotent and
// scrape-safe).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("spanjoin_http_request_seconds", "HTTP request latency.", nil,
		obs.Label{Key: "handler", Value: name})
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		ctx, tr := spanjoin.WithTrace(r.Context())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))
		d := time.Since(t0)
		hist.Observe(d)
		s.reg.Counter("spanjoin_http_requests_total", "HTTP requests by handler and status.",
			obs.Label{Key: "handler", Value: name},
			obs.Label{Key: "code", Value: strconv.Itoa(rec.status)}).Inc()
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("handler", name),
				slog.String("query", r.URL.RawQuery),
				slog.Int("status", rec.status),
				slog.Duration("dur", d))
		}
		s.slow.Observe(obs.SlowEntry{
			ID:       id,
			Time:     t0,
			Endpoint: name,
			Query:    r.URL.RawQuery,
			Status:   rec.status,
			Dur:      d,
			Stages:   tr.Spans(),
		})
	}
}

// nextRequestID mints a process-unique request ID: a per-process base
// (start time, so IDs from different runs do not collide in logs) plus a
// sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// statusRecorder captures the status a handler answered so the request
// counter and the slowlog can label by it.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (NDJSON responses) to the underlying
// writer.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceSpans returns the request's recorded stage spans when its query q
// opted into an on-the-wire stage trace (trace=1 or trace=true), nil
// otherwise.
func traceSpans(r *http.Request, q url.Values) []spanjoin.StageSpan {
	switch q.Get("trace") {
	case "1", "true":
		return spanjoin.TraceFromContext(r.Context()).Spans()
	}
	return nil
}

// handleMetrics serves the registry in Prometheus text exposition
// format: every /stats counter and then some — request latency
// and per-stage histograms (quantiles derivable from the cumulative
// buckets), gate depth, cache hit rate.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// heapLiveBytes reads the heap the last GC found live.
func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// SlowLogBody is GET /debug/slowlog's response.
type SlowLogBody struct {
	// ThresholdNS is the slowness bound in nanoseconds; 0 = disabled.
	ThresholdNS int64 `json:"threshold_ns"`
	// Total counts slow queries ever recorded (the ring keeps the newest).
	Total uint64 `json:"total"`
	// Entries are the retained slow queries, newest first.
	Entries []obs.SlowEntry `json:"entries"`
}

// handleSlowlog serves the retained slow queries, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	body := SlowLogBody{
		ThresholdNS: int64(s.slow.Threshold()),
		Total:       s.slow.Total(),
		Entries:     s.slow.Snapshot(),
	}
	if body.Entries == nil {
		body.Entries = []obs.SlowEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// mountPprof exposes the standard profiles on the server's own mux —
// explicitly, not via net/http/pprof's DefaultServeMux side effects, so
// a server without EnablePprof serves none of them.
func (s *Server) mountPprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
