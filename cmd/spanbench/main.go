// Command spanbench regenerates every experiment table and figure recorded
// in EXPERIMENTS.md: empirical validations of the paper's complexity
// claims (E1–E10) and exact reproductions of its worked examples and of
// Figure 1 (F1, G1).
//
// Usage:
//
//	spanbench [-experiment all|<id>] [-quick] [-json out.json]
//	          [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// -h lists the registered experiment ids.
//
// All workloads are seeded; output is deterministic modulo wall-clock
// timings. With -json, every printed table is also recorded to the given
// file as structured rows (experiment id, headers, cells), so successive
// runs can be archived as BENCH_*.json perf trajectories and diffed by
// later PRs. -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments, so perf work can profile exactly the workload it
// is optimizing without ad-hoc patches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"spanjoin/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func(quick bool)
}

var experiments []experiment

func register(id, title string, run func(quick bool)) {
	experiments = append(experiments, experiment{id, title, run})
}

func main() { os.Exit(run()) }

// run is main with defer-friendly control flow: the CPU profile must be
// stopped (and the heap profile written) on every exit path, which os.Exit
// inside the loop would skip. The exit code is a named return so the
// deferred heap-profile write can fail the run.
func run() (code int) {
	sort.Slice(experiments, func(i, j int) bool { return experiments[i].id < experiments[j].id })
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	which := flag.String("experiment", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	jsonOut := flag.String("json", "", "also record every table to this file as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spanbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spanbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spanbench: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spanbench: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	recorder.enabled = *jsonOut != ""
	ran := false
	for _, e := range experiments {
		if *which != "all" && !strings.EqualFold(*which, e.id) {
			continue
		}
		ran = true
		recorder.current = e.id
		fmt.Printf("## %s — %s\n\n", e.id, e.title)
		e.run(*quick)
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "spanbench: unknown experiment %q\n", *which)
		return 2
	}
	if *jsonOut != "" {
		if err := recorder.write(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "spanbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// jsonTable is one recorded table of a run.
type jsonTable struct {
	Experiment string     `json:"experiment"`
	Headers    []string   `json:"headers"`
	Rows       [][]string `json:"rows"`
}

// jsonReport is the -json output: enough metadata to compare trajectories
// across PRs plus every table of the run.
type jsonReport struct {
	Timestamp string      `json:"timestamp"`
	GoVersion string      `json:"go_version"`
	GOARCH    string      `json:"goarch"`
	Tables    []jsonTable `json:"tables"`
}

type tableRecorder struct {
	enabled bool
	current string
	tables  []jsonTable
}

var recorder tableRecorder

func (r *tableRecorder) record(t *table) {
	if !r.enabled {
		return
	}
	r.tables = append(r.tables, jsonTable{
		Experiment: r.current,
		Headers:    append([]string(nil), t.headers...),
		Rows:       append([][]string(nil), t.rows...),
	})
}

func (r *tableRecorder) write(path string) error {
	rep := jsonReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Tables:    r.tables,
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// table is a tiny markdown table printer.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = fmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	recorder.record(t)
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("| " + strings.Join(parts, " | ") + " |")
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// timeIt runs f and returns the elapsed wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ecPattern is the corpus experiments' search pattern.
const ecPattern = `mail{[a-z]+@[a-z]+\.[a-z]+}`

// ecDocs generates the corpus workload: seeded synthetic documents, about
// half containing an e-mail address.
func ecDocs(n int) []string {
	r := workload.Rand(4242)
	docs := make([]string, n)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{
			Sentences: 4, EmailRate: 0.5,
		})
	}
	return docs
}
