package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"spanjoin"
)

// Write/durability surface of the server, meaningful for a spand started
// with -data (but served — as no-ops or 404s — on a RAM corpus too):
//
//	POST /add       append one document (raw request body, any bytes
//	                including none: the empty body is the empty document);
//	                answers {"id": N} only after the write is acknowledged
//	                per the corpus's fsync policy
//	GET  /doc?id=N  fetch one document by ID
//	POST /snapshot  force a snapshot cycle (rotate, write, prune)
//	GET  /stats     gains a "durability" section
//
// A failed durable write (wedged log: full disk, failed fsync) answers
// 500 with the corrupt/storage error in the body; the document is then
// NOT in the corpus.

// AddBody is POST /add's response.
type AddBody struct {
	ID uint64 `json:"id"`
}

// DocBody is GET /doc's response.
type DocBody struct {
	ID   uint64 `json:"id"`
	Text string `json:"text"`
}

// SnapshotBody is POST /snapshot's response.
type SnapshotBody struct {
	Snapshots uint64 `json:"snapshots"` // cycles completed since open
	LogSize   uint64 `json:"log_size"`  // active log size after the cycle
}

// handleAdd appends the request body as one document. The response is
// the write's ack: on a durable corpus it is sent only after the record
// is logged per the fsync policy, so a client that got the ID keeps the
// document across any crash the policy covers.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxDocBytes()))
	if err != nil {
		s.failed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf("document too large (cap %d bytes): %v", s.cfg.maxDocBytes(), err)})
		return
	}
	ids, err := s.corpus.AddErrCtx(r.Context(), string(body))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(AddBody{ID: uint64(ids[0])})
}

// handleDoc fetches one document by ID.
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(p, 10, 64)
	if err != nil {
		s.badRequest(w, "bad id %q (want a uint64)", p)
		return
	}
	text, ok := s.corpus.Doc(spanjoin.DocID(id))
	if !ok {
		s.failed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf("no document %d", id)})
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(DocBody{ID: id, Text: text})
}

// handleSnapshot forces one snapshot cycle, which the request's trace
// records as the snapshot stage. No-op 200 on a RAM corpus.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.corpus.Snapshot(r.Context()); err != nil {
		s.writeError(w, err)
		return
	}
	s.served.Add(1)
	ds := s.corpus.DurabilityStats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SnapshotBody{Snapshots: ds.Snapshots, LogSize: ds.LogSize})
}

// Readiness separates liveness from readiness for a server whose corpus
// takes time to recover: it answers every request 503 with a JSON reason
// until Mount installs the real handler. The process is up (the listener
// is bound, /healthz answers) the moment the socket opens; it is ready
// only once recovery has replayed the durable state.
//
//	rd := server.NewReadiness("recovering corpus")
//	go http.Serve(ln, rd)          // binds and answers 503 immediately
//	c, _ := spanjoin.Open(dir)     // recovery replay
//	rd.Mount(server.New(c, cfg).Handler())  // now 200
type Readiness struct {
	inner  atomic.Pointer[http.Handler]
	reason atomic.Pointer[string]
}

// NewReadiness creates an unready handler answering 503 with reason.
func NewReadiness(reason string) *Readiness {
	rd := &Readiness{}
	rd.reason.Store(&reason)
	return rd
}

// Mount installs the real handler; every subsequent request routes to it.
func (rd *Readiness) Mount(h http.Handler) { rd.inner.Store(&h) }

// SetReason updates the not-ready explanation (e.g. recovery progress).
func (rd *Readiness) SetReason(reason string) { rd.reason.Store(&reason) }

// ServeHTTP routes to the mounted handler, or answers 503 — including on
// /healthz, which is the point: a load balancer probing /healthz keeps
// the instance out of rotation until recovery finishes.
func (rd *Readiness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := rd.inner.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	reason := ""
	if p := rd.reason.Load(); p != nil {
		reason = *p
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(ErrorBody{Error: "not ready: " + reason})
}
