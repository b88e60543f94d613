package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"spanjoin"
	"spanjoin/internal/prefilter"
	"spanjoin/server"
)

// The traced run replays the end-to-end run's op log in-process and
// serially, with the same corpus, corpus options and warmup, and splits
// each op's time across the layers. Every span comes from this file,
// around public calls:
//
//	pass 1  client → loopback socket → server.Handler: client span, and a
//	        server span from a wrapper around the handler; repeated with
//	        the wrapper off to measure the spans' own overhead
//	pass 2  the same ops as direct spanjoin.Corpus calls: spanjoin span,
//	        heap bytes, scanned documents; the program's own stage trace
//	        (WithTrace) is recorded beside it
//	pass 3  the engine work replayed through public calls: CompileSearch,
//	        plan build, Spanner.Ranked (graph build), Ranked.Count (DP),
//	        Ranked.Page (descent), durable vs RAM adds, and per-shard
//	        prefilter indexes
//
// A layer's self time is its span minus the next pass's span.

// corpusOptions mirrors spand's flags for the workload.
func corpusOptions(w workload) ([]spanjoin.CorpusOption, error) {
	opts := []spanjoin.CorpusOption{spanjoin.WithShards(2), spanjoin.WithWorkers(2), spanjoin.WithIndex(),
		spanjoin.WithMaxConcurrent(2), spanjoin.WithMaxQueue(8)}
	if w.durable {
		pol, err := spanjoin.ParseSyncPolicy("always")
		if err != nil {
			return nil, err
		}
		opts = append(opts, spanjoin.WithSync(pol), spanjoin.WithSnapshotThreshold(snapshotBytes))
	}
	return opts, nil
}

// openCorpus builds one pass's corpus: spand's options, the initial
// documents added in file order, durable on a fresh directory if the
// workload is.
func openCorpus(w workload, dir string, docs []string) (*spanjoin.Corpus, error) {
	opts, err := corpusOptions(w)
	if err != nil {
		return nil, err
	}
	var c *spanjoin.Corpus
	if w.durable {
		if c, err = spanjoin.Open(dir, opts...); err != nil {
			return nil, err
		}
	} else {
		c = spanjoin.NewCorpus(opts...)
	}
	for _, d := range docs {
		if _, err := c.AddErrCtx(context.Background(), d); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// layerAcc accumulates one op kind's per-layer figures across the passes.
type layerAcc struct {
	n         int
	client    time.Duration // pass 1 client span
	server    time.Duration // pass 1 server span
	lib       time.Duration // pass 2 spanjoin span
	stages    time.Duration // pass 2: the program's own stage trace, summed
	covered   time.Duration // pass 3 replay time charged to the op
	allocs    uint64        // pass 2 heap bytes
	respBytes int           // pass 1 response bytes
	visited   uint64        // pass 2 scanned documents
	snapshot  uint64        // documents in the corpus when the op ran
}

// replayOp is one op of the log, resolved so all passes issue the same call.
type replayOp struct {
	job  int
	kind opKind
	page int // crawl page index (offset = page × pageLimit)
}

var heapAllocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	rtmetrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// spanHandler wraps the server's handler with a server span per request,
// handed to the client over a channel once the handler returns.
type spanHandler struct {
	inner http.Handler
	spans chan time.Duration
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.spans <- time.Since(t0)
}

// serveLoopback serves h on a loopback port until the returned stop is
// called; stop returns once the server goroutine has exited.
func serveLoopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// pass1 drives the ops over a loopback socket, stopping at the deadline
// (the zero deadline replays limit jobs). It returns the ops issued, the
// jobs replayed and the summed client time.
func pass1(ctx context.Context, w workload, dir string, in inputs, limit int, deadline time.Time, spans bool, acc *[numOpKinds]layerAcc) ([]replayOp, int, time.Duration, error) {
	c, err := openCorpus(w, dir, in.docs)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Close()
	var h http.Handler = server.New(c, server.Config{}).Handler()
	// Room for every warmup span: they are drained after the warmup.
	sh := &spanHandler{inner: h, spans: make(chan time.Duration, len(in.warmup)+crawlLen)}
	if spans {
		h = sh
	}
	addr, stop, err := serveLoopback(h)
	if err != nil {
		return nil, 0, 0, err
	}
	defer stop()
	d := newLoadClient(addr)
	defer d.close()
	if err := d.runClosed(ctx, in.warmup); err != nil {
		return nil, 0, 0, err
	}
	if spans {
		for range in.warmup {
			<-sh.spans
		}
	}
	var ops []replayOp
	var total time.Duration
	jobs := 0
	for ji, j := range in.schedule {
		if (deadline.IsZero() && ji >= limit) || (!deadline.IsZero() && time.Now().After(deadline)) {
			break
		}
		jobs++
		snap := uint64(c.Len())
		for pi, r := range d.runJob(ctx, ji, j, time.Now(), 0) {
			if r.err != nil {
				return nil, 0, 0, fmt.Errorf("traced %s %q: %w", r.kind, j.Pattern, r.err)
			}
			ops = append(ops, replayOp{job: ji, kind: r.kind, page: pi})
			total += r.latency()
			if spans {
				a := &acc[r.kind]
				a.n++
				a.client += r.latency()
				a.server += <-sh.spans
				a.respBytes += r.bytes
				a.snapshot += snap
			}
		}
	}
	return ops, jobs, total, nil
}

// libCall is pass 2's record of one op, kept for pass 3's replay.
type libCall struct {
	dur      time.Duration
	miss     bool             // the compiled-query cache missed
	built    bool             // the plan was built by this op
	pageDocs []spanjoin.DocID // documents of the page's rows, in order
	pageRows map[spanjoin.DocID]int
}

// pass2 issues the ops as direct Corpus calls.
func pass2(ctx context.Context, w workload, dir string, in inputs, ops []replayOp, acc *[numOpKinds]layerAcc) ([]libCall, *spanjoin.Corpus, float64, error) {
	c, err := openCorpus(w, dir, in.docs)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, j := range in.warmup {
		if _, err := c.CountSearch(ctx, j.Pattern); err != nil {
			c.Close()
			return nil, nil, 0, err
		}
	}
	cs0 := c.CacheStats()
	calls := make([]libCall, len(ops))
	for i, op := range ops {
		j := in.schedule[op.job]
		tctx, tr := spanjoin.WithTrace(ctx)
		a0 := heapAllocs()
		t0 := time.Now()
		var (
			page    *spanjoin.Page
			scanned uint64
		)
		switch op.kind {
		case opEvalFirst, opEvalNext:
			cur := spanjoin.Cursor{Mode: "search", Pattern: j.Pattern, Offset: uint64(op.page * pageLimit)}
			page, _, _, err = c.EvalCursor(tctx, cur, pageLimit)
			if page != nil {
				scanned = page.Stats.Scanned
			}
		case opCount:
			_, err = c.CountSearch(tctx, j.Pattern)
		case opSample:
			_, err = c.SampleSearch(tctx, j.Pattern, rand.New(rand.NewSource(int64(op.job))), sampleN)
		case opAdd:
			_, err = c.AddErrCtx(tctx, j.Doc)
		}
		dur := time.Since(t0)
		allocs := heapAllocs() - a0
		if err != nil {
			c.Close()
			return nil, nil, 0, fmt.Errorf("traced library %s %q: %w", op.kind, j.Pattern, err)
		}
		call := libCall{dur: dur}
		var stages time.Duration
		for _, s := range tr.Spans() {
			stages += s.Dur
			switch s.Stage {
			case spanjoin.StageCache:
				call.miss = s.Items > 0
			case spanjoin.StagePlanBuild:
				call.built = true
			case spanjoin.StageCount:
				if page == nil {
					scanned = uint64(s.Items)
				}
			}
		}
		if page != nil {
			call.pageRows = make(map[spanjoin.DocID]int)
			for _, m := range page.Matches {
				if call.pageRows[m.Doc] == 0 {
					call.pageDocs = append(call.pageDocs, m.Doc)
				}
				call.pageRows[m.Doc]++
			}
		}
		calls[i] = call
		a := &acc[op.kind]
		a.lib += dur
		a.stages += stages
		a.allocs += allocs
		a.visited += scanned
	}
	cs1 := c.CacheStats()
	hitRate := 0.0
	if lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses); lookups > 0 {
		hitRate = float64(cs1.Hits-cs0.Hits) / float64(lookups)
	}
	return calls, c, hitRate, nil
}

// engineReplay is pass 3's per-layer totals.
type engineReplay struct {
	compile, plan, build, dp, descent, candidates time.Duration
	compiles, plans, candidateCalls               int
	states                                        int
	sweptBytes                                    int // document bytes built and counted
	indexAdd                                      time.Duration
	indexBytes                                    int
	sweepWork, sweepWall                          time.Duration // count and first-page ops: single-threaded doc work vs 2 × corpus wall
}

// requiredAll reports whether doc contains every literal — the prefilter's
// recheck, which decides the documents a sweep visits.
func requiredAll(doc string, lits []string) bool {
	for _, l := range lits {
		if !strings.Contains(doc, l) {
			return false
		}
	}
	return true
}

// pass3 replays the engine work of every read op through public calls.
func pass3(in inputs, ops []replayOp, calls []libCall, lib *spanjoin.Corpus, acc *[numOpKinds]layerAcc, er *engineReplay) error {
	type compiled struct {
		sp   *spanjoin.Spanner
		lits []string
		req  prefilter.Requirement
	}
	spanners := make(map[string]*compiled)
	getSpanner := func(p string) (*compiled, error) {
		if cp, ok := spanners[p]; ok {
			return cp, nil
		}
		t0 := time.Now()
		sp, err := spanjoin.CompileSearch(p)
		er.compile += time.Since(t0)
		if err != nil {
			return nil, err
		}
		er.compiles++
		st, _ := sp.Stats()
		er.states += st
		lits := sp.RequiredLiterals()
		// Plan build: the first ranked view of a fresh spanner builds the
		// plan; a second view of the same tiny probe document does not.
		probe := strings.Join(lits, " ")
		t1 := time.Now()
		if _, err := sp.Ranked(probe); err != nil {
			return nil, err
		}
		first := time.Since(t1)
		t2 := time.Now()
		if _, err := sp.Ranked(probe); err != nil {
			return nil, err
		}
		if d := first - time.Since(t2); d > 0 {
			er.plan += d
		}
		er.plans++
		cp := &compiled{sp: sp, lits: lits, req: prefilter.New(lits...)}
		spanners[p] = cp
		return cp, nil
	}

	// Per-shard prefilter indexes, dealt like the store deals documents.
	shards := [2]*prefilter.Index{prefilter.NewIndex(), prefilter.NewIndex()}
	docs := append([]string(nil), in.docs...)
	t0 := time.Now()
	for i, d := range docs {
		shards[i%2].Add(d)
		er.indexBytes += len(d)
	}
	er.indexAdd = time.Since(t0)

	for i, op := range ops {
		j := in.schedule[op.job]
		a := &acc[op.kind]
		if op.kind == opAdd {
			shards[len(docs)%2].Add(j.Doc)
			docs = append(docs, j.Doc)
			continue
		}
		cp, err := getSpanner(j.Pattern)
		if err != nil {
			return err
		}
		var covered time.Duration
		if calls[i].miss {
			covered += er.compile / time.Duration(er.compiles)
		}
		if calls[i].built {
			covered += er.plan / time.Duration(er.plans)
		}
		t0 := time.Now()
		for _, ix := range shards {
			ix.Candidates(cp.req)
		}
		er.candidates += time.Since(t0)
		er.candidateCalls++

		// The sweep: a graph build and a DP per document passing the
		// prefilter, single-threaded; the corpus runs it on its workers.
		// The ranked views of the page's documents are kept for the descent.
		onPage := make(map[string]spanjoin.DocID, len(calls[i].pageDocs))
		for _, id := range calls[i].pageDocs {
			text, _ := lib.Doc(id)
			onPage[text] = id
		}
		var work time.Duration
		views := make(map[spanjoin.DocID]*spanjoin.Ranked, len(onPage))
		for _, d := range docs {
			if !requiredAll(d, cp.lits) {
				continue
			}
			t1 := time.Now()
			rk, err := cp.sp.Ranked(d)
			t2 := time.Now()
			if err != nil {
				return err
			}
			rk.Count()
			t3 := time.Now()
			er.build += t2.Sub(t1)
			er.dp += t3.Sub(t2)
			er.sweptBytes += len(d)
			work += t3.Sub(t1)
			if id, ok := onPage[d]; ok {
				views[id] = rk
			}
		}
		covered += work / 2
		if op.kind == opCount || op.kind == opEvalFirst {
			er.sweepWork += work
			er.sweepWall += 2 * calls[i].dur
		}
		// The page: one descent per document the page's rows come from.
		for _, id := range calls[i].pageDocs {
			rk := views[id]
			if rk == nil {
				return fmt.Errorf("page row from doc %d, which the replayed sweep never visited", id)
			}
			t1 := time.Now()
			rk.Page(0, calls[i].pageRows[id])
			d := time.Since(t1)
			er.descent += d
			covered += d
		}
		a.covered += covered
	}
	return nil
}

// walReplay times adds on a durable corpus against a RAM corpus. The docs
// are the replayed adds, or — for a workload that issues none — its first
// documents, so every workload reports the WAL's cost on its own text.
func walReplay(w workload, dir string, in inputs, adds []string) (metrics, error) {
	if len(adds) == 0 {
		n := 64
		if n > len(in.docs) {
			n = len(in.docs)
		}
		adds = in.docs[:n]
	}
	var preload []string
	if w.durable {
		preload = in.docs
	}
	dw := w
	dw.durable = true
	durable, err := openCorpus(dw, dir, preload)
	if err != nil {
		return nil, err
	}
	defer durable.Close()
	rw := w
	rw.durable = false
	ram, err := openCorpus(rw, "", preload)
	if err != nil {
		return nil, err
	}
	defer ram.Close()
	ctx := context.Background()
	timeAdds := func(c *spanjoin.Corpus) (time.Duration, error) {
		t0 := time.Now()
		for _, d := range adds {
			if _, err := c.AddErrCtx(ctx, d); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	s0 := durable.DurabilityStats()
	dDur, err := timeAdds(durable)
	if err != nil {
		return nil, err
	}
	s1 := durable.DurabilityStats()
	rDur, err := timeAdds(ram)
	if err != nil {
		return nil, err
	}
	var docBytes int
	for _, d := range adds {
		docBytes += len(d)
	}
	n := time.Duration(len(adds))
	m := metrics{}
	m.ms("wal.ms_per_add", (dDur-rDur)/n)
	m.set("wal.fsyncs_per_add", float64(s1.Syncs-s0.Syncs)/float64(len(adds)), "count")
	m.set("wal.bytes_per_doc_byte", float64(s1.AppendBytes-s0.AppendBytes)/float64(docBytes), "ratio")
	return m, nil
}

// tracedRun is the -trace 1 run.
func tracedRun(cfg config) (result, map[string]any, error) {
	w := cfg.w
	in := genInputs(w, cfg.seed, cfg.seconds, cfg.rate)
	ctx := context.Background()
	dir := func(name string) string { return filepath.Join(cfg.workdir, name) }

	// Pass 1 with spans sets the replayed prefix: as many jobs as fit a
	// fifth of the run's seconds (pass 3 costs about twice pass 1).
	var acc [numOpKinds]layerAcc
	budget := time.Duration(cfg.seconds) * time.Second / 5
	ops, jobs, withSpans, err := pass1(ctx, w, dir("pass1"), in, 0, time.Now().Add(budget), true, &acc)
	if err != nil {
		return result{}, nil, err
	}
	if len(ops) == 0 {
		return result{}, nil, errors.New("traced run replayed no op")
	}
	var unspanned [numOpKinds]layerAcc
	_, _, withoutSpans, err := pass1(ctx, w, dir("pass1-nospans"), in, jobs, time.Time{}, false, &unspanned)
	if err != nil {
		return result{}, nil, err
	}
	calls, lib, hitRate, err := pass2(ctx, w, dir("pass2"), in, ops, &acc)
	if err != nil {
		return result{}, nil, err
	}
	defer lib.Close()
	var er engineReplay
	if err := pass3(in, ops, calls, lib, &acc, &er); err != nil {
		return result{}, nil, err
	}
	var adds []string
	for _, op := range ops {
		if op.kind == opAdd {
			adds = append(adds, in.schedule[op.job].Doc)
		}
	}
	walM, err := walReplay(w, dir("wal"), in, adds)
	if err != nil {
		return result{}, nil, err
	}
	// Per-op figures for every op the workload issues (the record), and the
	// declared per-layer metrics (the result line).
	detail := metrics{}
	for k := opKind(0); k < numOpKinds; k++ {
		a := acc[k]
		if a.n == 0 {
			continue
		}
		n := time.Duration(a.n)
		op := k.String()
		detail.set("ops."+op, float64(a.n), "count")
		detail.ms("client.self_ms."+op, (a.client-a.server)/n)
		detail.set("client.resp_bytes."+op, float64(a.respBytes)/float64(a.n), "bytes")
		detail.ms("server.self_ms."+op, (a.server-a.lib)/n)
		detail.ms("spanjoin.ms."+op, a.lib/n)
		detail.set("spanjoin.alloc_kb."+op, float64(a.allocs)/1024/float64(a.n), "KB")
		detail.ms("spanjoin.unattributed_ms."+op, (a.lib-a.covered)/n)
		detail.ms("obs.stage_ms."+op, a.stages/n)
		if k != opAdd {
			detail.set("corpus.docs_visited."+op, float64(a.visited)/float64(a.n), "docs")
		}
	}
	m := metrics{}
	for _, op := range []string{"eval_first", "count"} {
		for _, name := range []string{"client.self_ms.", "client.resp_bytes.", "server.self_ms.", "spanjoin.ms.",
			"spanjoin.alloc_kb.", "spanjoin.unattributed_ms.", "obs.stage_ms.", "corpus.docs_visited."} {
			v, ok := detail[name+op]
			if !ok {
				return result{}, nil, fmt.Errorf("traced run replayed no %s op", op)
			}
			m[name+op] = v
		}
	}
	var visited, snapshot uint64
	for _, k := range []opKind{opEvalFirst, opEvalNext, opCount, opSample} {
		visited += acc[k].visited
		snapshot += acc[k].snapshot
	}
	m.set("corpus.cache_hit_rate", hitRate, "ratio")
	m.set("corpus.sweep_efficiency", safeDiv(er.sweepWork.Seconds(), er.sweepWall.Seconds()), "ratio")
	m.set("prefilter.scan_share", safeDiv(float64(visited), float64(snapshot)), "ratio")
	m.ms("prefilter.candidates_ms", er.candidates/time.Duration(max(er.candidateCalls, 1)))
	m.set("prefilter.index_add_us_per_kb", safeDiv(float64(er.indexAdd.Nanoseconds())/1e3, float64(er.indexBytes)/1024), "us/KB")
	m.ms("rgx.compile_ms", er.compile/time.Duration(max(er.compiles, 1)))
	m.set("vsa.states", safeDiv(float64(er.states), float64(er.compiles)), "states")
	m.ms("enum.plan_ms", er.plan/time.Duration(max(er.plans, 1)))
	m.set("enum.build_us_per_kb", safeDiv(float64(er.build.Nanoseconds())/1e3, float64(er.sweptBytes)/1024), "us/KB")
	m.set("ranked.dp_us_per_kb", safeDiv(float64(er.dp.Nanoseconds())/1e3, float64(er.sweptBytes)/1024), "us/KB")
	m.ms("ranked.descent_ms", er.descent/time.Duration(max(acc[opEvalFirst].n+acc[opEvalNext].n, 1)))
	for k, v := range walM {
		m[k] = v
	}
	m.set("bench.span_overhead_pct", 100*safeDiv((withSpans-withoutSpans).Seconds(), withoutSpans.Seconds()), "%")
	m.set("bench.replayed_ops", float64(len(ops)), "count")

	attempted := len(ops)
	record := map[string]any{
		"provenance":    newProvenance(w, cfg.seed, cfg.seconds, 1, cfg.root, nil),
		"replayed_jobs": jobs,
		"metrics":       m,
		"detail":        detail,
	}
	return result{Correct: true, Attempted: attempted, Failed: 0, Metrics: m}, record, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
