// Command spand serves a spanjoin corpus over HTTP/JSON.
//
// Usage:
//
//	spand -addr :8080 [corpus flags] [server flags] [FILE ...]
//
// Each positional FILE is loaded as one document; -lines FILE (or
// -lines -) instead loads one document per line, which is how the load
// experiments and the CI integration test feed a many-document corpus.
//
// Corpus flags mirror the library's constructor options:
//
//	-shards N          store shards (0 = default)
//	-workers N         evaluation pool size (0 = GOMAXPROCS)
//	-index             build the skip index on ingest
//	-max-concurrent N  admission gate: evaluations running at once (0 = unbounded)
//	-max-queue N       admission gate: queries waiting for a slot
//
// Durability flags make the corpus survive crashes (see the README's
// "Durability and crash recovery"):
//
//	-data DIR          back the corpus with a write-ahead log + snapshots
//	                   in DIR; POST /add acks are durable per -fsync, and
//	                   a restart recovers every acknowledged write
//	-fsync P           always | interval | never (default always)
//	-fsync-interval D  fsync cadence under -fsync interval (default 100ms)
//	-snapshot-bytes N  snapshot + prune when the log passes N bytes
//	                   (default 64 MiB; 0 disables automatic snapshots)
//
// Server flags bound what one request can ask for:
//
//	-max-page N        page-size clamp for /eval limit and /sample n
//	-default-timeout D per-request deadline when the request names none
//	-max-timeout D     clamp for request-supplied timeouts
//	-max-doc-bytes N   POST /add body clamp (default 16 MiB)
//
// Observability flags (see the README's "Observability"):
//
//	-slow-query D      retain requests at least D slow — with their full
//	                   stage trace — in GET /debug/slowlog (0 = off)
//	-slowlog-size N    slow-query ring capacity (default 128)
//	-pprof             mount the runtime profiles under /debug/pprof/
//	-log-requests      one structured log line per request on stderr
//
// GET /metrics (Prometheus text format) is always on.
//
// The listener binds before the corpus is opened: during recovery and
// ingest every request — /healthz included — answers 503 with the
// reason, flipping to 200 when serving starts ("ready" on stdout). Load
// balancers therefore keep a recovering instance out of rotation
// without mistaking it for a dead one.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get -grace (default 5s) to finish, then the corpus is
// closed — syncing the log, so a graceful shutdown is fully durable
// even under -fsync never.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spanjoin"
	"spanjoin/server"
)

// Connection limits of the HTTP server. Without them one client holds a
// connection, and the goroutine serving it, forever: by trickling its
// request header or by parking an idle keep-alive connection.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// maxHeaderBytes caps a request's line and header. A GET carries its
// pattern in the URL, so net/http's 1 MiB default would hand a 1 MiB
// pattern to the compiler; past the cap the server answers 431 before any
// handler runs. The cap still admits the cursor token of a pattern of
// about 45 KiB (JSON, then base64: 4/3 of the pattern's bytes).
const maxHeaderBytes = 64 << 10

// newHTTPServer is spand's HTTP server around h, its errors logged to
// stderr.
func newHTTPServer(h http.Handler, stderr io.Writer) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
		ErrorLog:          log.New(stderr, "spand: ", 0),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus process concerns, split out for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	shards := fs.Int("shards", 0, "store shards (0 = default)")
	workers := fs.Int("workers", 0, "evaluation pool size (0 = GOMAXPROCS)")
	index := fs.Bool("index", false, "build the skip index on ingest")
	maxConcurrent := fs.Int("max-concurrent", 0, "admission gate: evaluations running at once (0 = unbounded)")
	maxQueue := fs.Int("max-queue", 0, "admission gate: queries waiting for a slot")
	maxPage := fs.Int("max-page", 0, "page-size clamp for /eval limit and /sample n (0 = default)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-request deadline when the request names none (0 = default)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp for request-supplied timeouts (0 = default)")
	maxDocBytes := fs.Int64("max-doc-bytes", 0, "POST /add body clamp in bytes (0 = default 16 MiB)")
	data := fs.String("data", "", "data directory: WAL + snapshots, crash-recovered on start")
	fsync := fs.String("fsync", "always", "durable ack policy: always | interval | never")
	fsyncInterval := fs.Duration("fsync-interval", 0, "fsync cadence under -fsync interval (0 = default 100ms)")
	snapshotBytes := fs.Int64("snapshot-bytes", 64<<20, "snapshot + prune when the log passes N bytes (0 = never)")
	lines := fs.String("lines", "", "load one document per line of FILE ('-' = stdin)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace for in-flight requests")
	pprofOn := fs.Bool("pprof", false, "mount the runtime profiles under /debug/pprof/")
	slowQuery := fs.Duration("slow-query", 0, "retain requests at least this slow in /debug/slowlog (0 = off)")
	slowlogSize := fs.Int("slowlog-size", 0, "slow-query ring capacity (0 = default 128)")
	logRequests := fs.Bool("log-requests", false, "log one structured line per request to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var copts []spanjoin.CorpusOption
	if *shards > 0 {
		copts = append(copts, spanjoin.WithShards(*shards))
	}
	if *workers > 0 {
		copts = append(copts, spanjoin.WithWorkers(*workers))
	}
	if *index {
		copts = append(copts, spanjoin.WithIndex())
	}
	if *maxConcurrent > 0 {
		copts = append(copts, spanjoin.WithMaxConcurrent(*maxConcurrent))
	}
	if *maxQueue > 0 {
		copts = append(copts, spanjoin.WithMaxQueue(*maxQueue))
	}

	// Bind before recovery: the address is on stdout (and /healthz
	// answers 503 + reason) while the corpus replays its durable state,
	// so "up" and "ready" are observable as distinct conditions.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "spand:", err)
		return 1
	}
	// The resolved address is the first line on stdout so scripts (and the
	// CI integration test) can bind ":0" and read back the port.
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	rd := server.NewReadiness("recovering corpus")
	hs := newHTTPServer(rd, stderr)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Crash points (failpoints builds only; no-op otherwise) arm before
	// any durable write so the harness can kill the ingest path too.
	armCrashpoints()

	var corpus *spanjoin.Corpus
	if *data != "" {
		policy, err := spanjoin.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(stderr, "spand:", err)
			hs.Close()
			return 2
		}
		copts = append(copts, spanjoin.WithSync(policy), spanjoin.WithSnapshotThreshold(*snapshotBytes))
		if *fsyncInterval > 0 {
			copts = append(copts, spanjoin.WithSyncInterval(*fsyncInterval))
		}
		corpus, err = spanjoin.Open(*data, copts...)
		if err != nil {
			// A corrupt directory is deliberately fatal and typed: refusing
			// to serve beats silently serving a partial corpus.
			fmt.Fprintln(stderr, "spand:", err)
			hs.Close()
			return 1
		}
	} else {
		corpus = spanjoin.NewCorpus(copts...)
	}

	rd.SetReason("loading documents")
	if err := load(corpus, *lines, fs.Args()); err != nil {
		fmt.Fprintln(stderr, "spand:", err)
		corpus.Close()
		hs.Close()
		return 1
	}

	scfg := server.Config{
		MaxPageSize:    *maxPage,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxDocBytes:    *maxDocBytes,
		SlowQuery:      *slowQuery,
		SlowLogSize:    *slowlogSize,
		EnablePprof:    *pprofOn,
	}
	if *logRequests {
		scfg.Logger = slog.New(slog.NewTextHandler(stderr, nil))
	}
	srv := server.New(corpus, scfg)
	rd.Mount(srv.Handler())
	fmt.Fprintf(stdout, "ready (%d docs, %d shards)\n", corpus.Len(), corpus.NumShards())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "spand:", err)
			corpus.Close()
			return 1
		}
	case <-ctx.Done():
		stop()
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
		// Close after Shutdown: in-flight durable adds finish first, then
		// the log is synced and closed — under every fsync policy a
		// graceful shutdown loses nothing.
		if err := corpus.Close(); err != nil {
			fmt.Fprintln(stderr, "spand: closing corpus:", err)
			return 1
		}
		fmt.Fprintln(stdout, "shut down")
	}
	return 0
}

// load ingests the corpus as one batch: every positional file as one
// document, plus — with -lines — one document per line of a file or
// stdin. A durable corpus logs the whole batch first, with one fsync
// under -fsync always, so a crash during the load leaves at most a prefix
// of it; either kind of corpus then fills its shards in parallel. A read
// error adds nothing.
func load(c *spanjoin.Corpus, lines string, files []string) error {
	var docs []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		docs = append(docs, string(b))
	}
	if lines != "" {
		r := io.Reader(os.Stdin)
		if lines != "-" {
			f, err := os.Open(lines)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
		for sc.Scan() {
			docs = append(docs, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	_, err := c.AddErrCtx(context.Background(), docs...)
	return err
}
