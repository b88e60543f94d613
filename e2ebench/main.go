// Command e2ebench is spanjoin's end-to-end benchmark: it starts cmd/spand
// as a child process on loopback, drives one workload at it open-loop,
// checks every response against the library, and prints the end-to-end
// metrics. With -trace 1 it instead replays the same requests in-process,
// layer by layer, and prints per-layer metrics. See README.md.
//
// Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// The line before it is the run's full record: provenance (cores, Go
// version, source digest, spand flags, seed, offered rate), per-op sample
// counts and every per-op figure, including those of ops only some
// workloads issue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"spanjoin/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	w       workload
	seed    int64
	seconds int
	trace   int
	rate    float64
	spand   string
	workdir string
	root    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: browse | adhoc | ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end run, 1 = traced layer-by-layer replay")
	rate := fs.Float64("rate", 0, "offered job arrivals per second (0 = the workload's fixed rate; for calibration)")
	spand := fs.String("spand", "", "spand binary")
	workdir := fs.String("workdir", "", "working directory for corpus files and data directories (emptied first)")
	root := fs.String("root", "", "repository root (for the source digest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *workdir == "" || (*trace == 0 && *spand == "") {
		fmt.Fprintln(stderr, "e2ebench: need -workload browse|adhoc|ingest, -seconds ≥ 1, -trace 0|1, -workdir, and -spand for -trace 0")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace, rate: *rate, spand: *spand, workdir: *workdir, root: *root}
	if err := os.RemoveAll(cfg.workdir); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	var (
		res    result
		record map[string]any
		err    error
	)
	if cfg.trace == 1 {
		res, record, err = tracedRun(cfg)
	} else {
		res, record, err = e2eRun(cfg, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// setupRepeats is how many times a run starts spand to time set-up; the
// median is reported and the last start serves the measured window.
const setupRepeats = 9

// e2eRun is the end-to-end run: spand over loopback, open-loop load,
// every response checked.
func e2eRun(cfg config, stderr io.Writer) (result, map[string]any, error) {
	w := cfg.w
	in := genInputs(w, cfg.seed, cfg.seconds, cfg.rate)
	corpusPath := filepath.Join(cfg.workdir, "corpus.lines")
	if err := os.WriteFile(corpusPath, []byte(corpusFile(in.docs)), 0o644); err != nil {
		return result{}, nil, err
	}

	// Expected answers first, while nothing else runs.
	var adds []string
	for _, j := range in.schedule {
		if j.Kind == opAdd {
			adds = append(adds, j.Doc)
		}
	}
	o := newOracle(in.docs, adds)
	exp, err := o.expect(append(append([]job(nil), in.schedule...), in.warmup...))
	if err != nil {
		return result{}, nil, err
	}

	// Set-up: start spand setupRepeats times, each on a fresh data
	// directory; keep the last one.
	var (
		setups []time.Duration
		sp     *spandProc
		flags  []string
		data   string
	)
	for i := 0; i < setupRepeats; i++ {
		if sp != nil {
			if err := sp.stop(); err != nil {
				return result{}, nil, err
			}
		}
		data = filepath.Join(cfg.workdir, fmt.Sprintf("data%d", i))
		flags = spandArgs(w, corpusPath, data)
		if sp, err = startSpand(cfg.spand, flags); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, sp.setup)
	}
	stopped := false
	defer func() {
		if !stopped {
			sp.stop()
		}
	}()

	ctx := context.Background()
	d := newLoadClient(sp.addr)
	defer d.close()
	if err := d.runClosed(ctx, in.warmup); err != nil {
		return result{}, nil, err
	}
	before, err := d.stats(ctx)
	if err != nil {
		return result{}, nil, err
	}
	cpu0, err := sp.cpuTime()
	if err != nil {
		return result{}, nil, err
	}
	stopRSS := make(chan struct{})
	rssSamples := sp.sampleRSS(100*time.Millisecond, stopRSS)
	results, ls := d.runOpenLoop(ctx, in.schedule)
	cpu1, err := sp.cpuTime()
	if err != nil {
		return result{}, nil, err
	}
	close(stopRSS)
	rss := <-rssSamples
	peak, err := sp.memStatus("VmHWM")
	if err != nil {
		return result{}, nil, err
	}
	if len(rss) == 0 {
		return result{}, nil, fmt.Errorf("no RSS sample of spand")
	}
	after, err := d.stats(ctx)
	if err != nil {
		return result{}, nil, err
	}

	// Checks, after the window: documents are read back through GET /doc.
	texts := make(map[uint64]string)
	docText := func(id uint64) (string, error) {
		if t, ok := texts[id]; ok {
			return t, nil
		}
		t, err := d.fetchDoc(ctx, id)
		if err == nil {
			texts[id] = t
		}
		return t, err
	}
	checkRun(o, exp, in.schedule, results, docText)

	stopped = true
	if err := sp.stop(); err != nil {
		return result{}, nil, err
	}

	// Figures.
	var lat [numOpKinds][]time.Duration
	var all, lates, waits []time.Duration
	attempted, failed, answered := 0, 0, 0
	for _, rs := range results {
		for _, r := range rs {
			attempted++
			if r.err == nil {
				answered++
			}
			if r.failure != nil {
				failed++
				continue
			}
			lat[r.kind] = append(lat[r.kind], r.latency())
			all = append(all, r.latency())
			waits = append(waits, r.connWait)
			if r.kind != opEvalNext {
				lates = append(lates, r.late)
			}
		}
	}
	completed := attempted - failed
	if completed == 0 || answered == 0 {
		return result{}, nil, fmt.Errorf("no op completed: %v", failureSummary(results))
	}
	m := metrics{}
	m.set("setup_s", median(setups).Seconds(), "s")
	m.ms("op_p50_ms", quantile(all, 0.5))
	m.ms("server_cpu_ms_per_op", (cpu1-cpu0)/time.Duration(answered))
	m.set("server_rss_mb", float64(median(rss))/(1<<20), "MB")

	// The record: every per-op figure, the load generator's validity
	// figures and the provenance.
	detail := metrics{}
	samples := map[string]int{}
	for k := opKind(0); k < numOpKinds; k++ {
		samples[k.String()] = len(lat[k])
		if len(lat[k]) > 0 {
			detail.ms(k.String()+"_p50_ms", quantile(lat[k], 0.5))
			detail.ms(k.String()+"_p90_ms", quantile(lat[k], 0.9))
		}
	}
	detail.ms("op_p90_ms", quantile(all, 0.9))
	detail.set("error_rate", float64(failed)/float64(attempted), "ratio")
	detail.set("server_peak_rss_mb", float64(peak)/(1<<20), "MB")
	window := ls.end.Sub(ls.start)
	detail.set("achieved_ops_per_s", float64(completed)/window.Seconds(), "1/s")
	detail.set("server_cpu_share", (cpu1-cpu0).Seconds()/(window.Seconds()*float64(runtime.NumCPU())), "ratio")
	detail.ms("loadgen.late_p99_ms", quantile(lates, 0.99))
	detail.ms("loadgen.late_max_ms", ls.lateMax)
	detail.ms("loadgen.conn_wait_p90_ms", quantile(waits, 0.9))
	detail.set("loadgen.backlog", float64(ls.backlog), "jobs")
	detail.set("loadgen.max_in_flight", float64(ls.maxDepth), "jobs")
	detail.set("corpus.cache_hit_rate", hitRate(before, after), "ratio")
	detail.set("resilience.rejected", float64(after.Gate.Rejected-before.Gate.Rejected), "count")
	valid := ls.backlog <= 2*maxConns && window < time.Duration(cfg.seconds)*time.Second*3/2
	if w.durable {
		db, err := dirBytes(data)
		if err != nil {
			return result{}, nil, err
		}
		var docBytes int
		for _, dd := range in.docs {
			docBytes += len(dd)
		}
		for ji, rs := range results {
			if len(rs) > 0 && rs[0].kind == opAdd && rs[0].failure == nil {
				docBytes += len(in.schedule[ji].Doc)
			}
		}
		detail.set("space_amp", float64(db)/float64(docBytes), "ratio")
		if after.Durability != nil && before.Durability != nil {
			detail.set("wal.snapshots", float64(after.Durability.Snapshots-before.Durability.Snapshots), "count")
		}
	}
	if !valid {
		fmt.Fprintf(stderr, "e2ebench: INVALID RUN: backlog %d jobs, window %v for a %ds schedule — the offered load outran spand\n",
			ls.backlog, window.Round(time.Millisecond), cfg.seconds)
	}
	failures := failureSummary(results)
	for _, f := range failures {
		fmt.Fprintln(stderr, "e2ebench: check failed:", f)
	}
	rate := cfg.rate
	if rate <= 0 {
		rate = w.rate
	}
	setupSecs := make([]float64, len(setups))
	for i, s := range setups {
		setupSecs[i] = s.Seconds()
	}
	sort.Float64s(setupSecs)
	offered := map[string]int{}
	for k, n := range opCounts(in.schedule) {
		offered[opKind(k).String()] = n
	}
	record := map[string]any{
		"provenance":         newProvenance(w, cfg.seed, cfg.seconds, 0, cfg.root, flags),
		"offered_jobs_per_s": rate,
		"offered_ops":        offered,
		"samples":            samples,
		"valid":              valid,
		"setup_s_runs":       setupSecs,
		"metrics":            m,
		"detail":             detail,
		"failures":           failures,
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	return res, record, nil
}

// hitRate is the compiled-query cache's hit rate between two /stats reads.
func hitRate(before, after server.StatsBody) float64 {
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
