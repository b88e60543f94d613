//go:build failpoints

// Crash-injection harness: builds the real spand binary (failpoints tag),
// SIGKILLs it at armed crash points mid-ingest via SPAND_CRASHPOINT,
// restarts it on the same data directory, and checks the durability
// contract from the outside — a client that got an ack keeps its
// document byte-for-byte; a client that got no ack never sees a phantom
// the log cannot justify.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"spanjoin/internal/resilience"
	"spanjoin/server"
)

// spandBin is the failpoints-tagged spand binary, built once in TestMain.
var spandBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spand-crash")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spandBin = filepath.Join(dir, "spand")
	cmd := exec.Command("go", "build", "-tags", "failpoints", "-o", spandBin, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "building spand:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one running spand with its resolved address and exit channel.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startSpand launches the built binary on :0 over dir and parses the
// bound address off stdout. extraEnv entries are "K=V" strings. The
// process is killed when the test ends, if it still runs then.
func startSpand(t *testing.T, dir string, extraEnv []string, args ...string) *proc {
	t.Helper()
	full := append([]string{"-addr", "127.0.0.1:0", "-data", dir}, args...)
	cmd := exec.Command(spandBin, full...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("spand exited before printing its address")
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		t.Fatalf("first stdout line = %q, want the listen address", sc.Text())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	t.Cleanup(func() {
		// Kill fails once Wait has reaped the process; otherwise wait for
		// it, so the data directory is free before the test removes it.
		if cmd.Process.Kill() == nil {
			<-done
		}
	})
	return &proc{cmd: cmd, addr: addr, done: done}
}

// waitReady polls /healthz until the recovering server answers 200.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("spand at %s never became ready", addr)
}

// waitKilled asserts the process died by SIGKILL — the crash point fired.
func waitKilled(t *testing.T, p *proc) {
	t.Helper()
	select {
	case err := <-p.done:
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("spand exited without a signal (%v), want SIGKILL", err)
		}
		ws := ee.Sys().(syscall.WaitStatus)
		if !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("spand died with %v, want SIGKILL", ee)
		}
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("spand did not die at the armed crash point")
	}
}

// stop shuts a healthy spand down gracefully and requires exit 0.
func stop(t *testing.T, p *proc) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("spand did not shut down on SIGTERM")
	}
}

// postDoc appends one document; a transport error means the server died
// before acking (the crash point fired mid-write).
func postDoc(addr, text string) (uint64, error) {
	resp, err := http.Post("http://"+addr+"/add", "text/plain", strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("POST /add: status %d: %s", resp.StatusCode, b)
	}
	var ab server.AddBody
	if err := json.NewDecoder(resp.Body).Decode(&ab); err != nil {
		return 0, err
	}
	return ab.ID, nil
}

// getDoc fetches one document by ID.
func getDoc(t *testing.T, addr string, id uint64) (string, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/doc?id=%d", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", false
	}
	var db server.DocBody
	if err := json.NewDecoder(resp.Body).Decode(&db); err != nil {
		t.Fatal(err)
	}
	return db.Text, true
}

// docCount reads the corpus size off /stats.
func docCount(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb server.StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.Docs
}

// matchesPattern reports whether /count finds at least one match.
func matchesPattern(t *testing.T, addr, pattern string) bool {
	t.Helper()
	q := url.Values{"q": {pattern}}
	resp, err := http.Get("http://" + addr + "/count?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /count: status %d: %s", resp.StatusCode, b)
	}
	var cb server.CountBody
	if err := json.NewDecoder(resp.Body).Decode(&cb); err != nil {
		t.Fatal(err)
	}
	return cb.Count != "0"
}

// TestCrashDuringIngest is the headline scenario: kill the server with
// SIGKILL at each crash point inside the nth durable add, restart on the
// same directory, and check what survived against what was acked.
func TestCrashDuringIngest(t *testing.T) {
	cases := []struct {
		point  string
		logged bool // the in-flight record reached the log before the kill
	}{
		{resilience.CrashBeforeAppend, false},
		{resilience.CrashAfterAppend, true},
		{resilience.CrashBeforeAck, true},
	}
	for _, tc := range cases {
		t.Run(path.Base(tc.point), func(t *testing.T) {
			const nth = 4
			dir := t.TempDir()
			p := startSpand(t, dir, []string{fmt.Sprintf("SPAND_CRASHPOINT=%s:%d", tc.point, nth)})
			waitReady(t, p.addr)

			type doc struct {
				id   uint64
				text string
			}
			var acked []doc
			inflight := ""
			for i := 0; inflight == "" && i < nth+2; i++ {
				text := fmt.Sprintf("document %d carrying tok%03d", i, i)
				id, err := postDoc(p.addr, text)
				if err != nil {
					inflight = text
					break
				}
				acked = append(acked, doc{id, text})
			}
			if inflight == "" {
				t.Fatal("no add hit the crash point")
			}
			if len(acked) != nth-1 {
				t.Fatalf("%d adds acked before the crash, want %d", len(acked), nth-1)
			}
			waitKilled(t, p)

			p2 := startSpand(t, dir, nil)
			defer stop(t, p2)
			waitReady(t, p2.addr)

			// Every acked document is present, byte-identical, same ID.
			for _, d := range acked {
				got, ok := getDoc(t, p2.addr, d.id)
				if !ok || got != d.text {
					t.Fatalf("acked doc %d after crash = %q,%v, want %q", d.id, got, ok, d.text)
				}
			}
			inTok := fmt.Sprintf("tok%03d", len(acked))
			if tc.logged {
				// Logged-but-unacked: the record hit disk before the kill,
				// so recovery replays it — present and byte-identical (an
				// exact full-document match), just never acked.
				if n := docCount(t, p2.addr); n != len(acked)+1 {
					t.Fatalf("recovered %d docs, want %d acked + 1 logged in-flight", n, len(acked))
				}
				if !matchesPattern(t, p2.addr, "x{"+inflight+"}") {
					t.Fatalf("logged in-flight doc %q not recovered byte-identical", inflight)
				}
			} else {
				// Killed before the append: the unacked document must be
				// strictly absent — recovery never invents writes.
				if n := docCount(t, p2.addr); n != len(acked) {
					t.Fatalf("recovered %d docs, want exactly the %d acked", n, len(acked))
				}
				if matchesPattern(t, p2.addr, ".*x{"+inTok+"}.*") {
					t.Fatalf("unacked doc %q resurrected after crash", inflight)
				}
			}
		})
	}
}

// TestCrashDuringLoad kills spand at each crash point of its -lines
// load, which logs the whole file as one batch, and restarts it without
// -lines: recovery finds none of the lines when the kill came before the
// append, and all of them — each byte-identical, at ID = line index —
// when it came after.
func TestCrashDuringLoad(t *testing.T) {
	const n = 64
	var lines []string
	for i := range n {
		lines = append(lines, fmt.Sprintf("line %d carrying tok%03d", i, i))
	}
	file := filepath.Join(t.TempDir(), "lines.txt")
	if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		point string
		want  int
	}{
		{resilience.CrashBeforeAppend, 0},
		{resilience.CrashAfterAppend, n},
		{resilience.CrashBeforeAck, n},
	}
	for _, tc := range cases {
		t.Run(path.Base(tc.point), func(t *testing.T) {
			dir := t.TempDir()
			p := startSpand(t, dir, []string{"SPAND_CRASHPOINT=" + tc.point + ":1"}, "-lines", file)
			waitKilled(t, p)

			p2 := startSpand(t, dir, nil)
			defer stop(t, p2)
			waitReady(t, p2.addr)
			if got := docCount(t, p2.addr); got != tc.want {
				t.Fatalf("recovered %d documents, want %d", got, tc.want)
			}
			for i, want := range lines[:tc.want] {
				if got, ok := getDoc(t, p2.addr, uint64(i)); !ok || got != want {
					t.Fatalf("doc %d after the crash = %q,%v, want %q", i, got, ok, want)
				}
			}
		})
	}
}

// TestCrashDuringSnapshot kills the server inside a snapshot cycle —
// before and after the atomic rename — and checks no acked document is
// lost either way: the snapshot is all-or-nothing and the log covers it.
func TestCrashDuringSnapshot(t *testing.T) {
	for _, point := range []string{resilience.CrashSnapBeforeRen, resilience.CrashSnapAfterRen} {
		t.Run(path.Base(point), func(t *testing.T) {
			dir := t.TempDir()
			p := startSpand(t, dir, []string{"SPAND_CRASHPOINT=" + point + ":1"})
			waitReady(t, p.addr)

			var acked []string
			var ids []uint64
			for i := 0; i < 5; i++ {
				text := fmt.Sprintf("snapshot survivor %d", i)
				id, err := postDoc(p.addr, text)
				if err != nil {
					t.Fatalf("add %d: %v", i, err)
				}
				acked = append(acked, text)
				ids = append(ids, id)
			}
			resp, err := http.Post("http://"+p.addr+"/snapshot", "", nil)
			if err == nil {
				resp.Body.Close()
				t.Fatal("snapshot completed; the crash point never fired")
			}
			waitKilled(t, p)

			p2 := startSpand(t, dir, nil)
			defer stop(t, p2)
			waitReady(t, p2.addr)
			if n := docCount(t, p2.addr); n != len(acked) {
				t.Fatalf("recovered %d docs, want %d", n, len(acked))
			}
			for i, text := range acked {
				got, ok := getDoc(t, p2.addr, ids[i])
				if !ok || got != text {
					t.Fatalf("doc %d after snapshot crash = %q,%v, want %q", ids[i], got, ok, text)
				}
			}
		})
	}
}

// TestGracefulShutdownFlushes pins the -fsync never contract: unsynced
// acks survive a graceful SIGTERM because Close syncs the log on the way
// out. (They would NOT survive SIGKILL — that is the policy's trade.)
func TestGracefulShutdownFlushes(t *testing.T) {
	dir := t.TempDir()
	p := startSpand(t, dir, nil, "-fsync", "never")
	waitReady(t, p.addr)
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := postDoc(p.addr, fmt.Sprintf("unsynced doc %d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop(t, p)

	p2 := startSpand(t, dir, nil)
	defer stop(t, p2)
	waitReady(t, p2.addr)
	if n := docCount(t, p2.addr); n != len(ids) {
		t.Fatalf("recovered %d docs after graceful shutdown, want %d", n, len(ids))
	}
	for i, id := range ids {
		want := fmt.Sprintf("unsynced doc %d", i)
		if got, ok := getDoc(t, p2.addr, id); !ok || got != want {
			t.Fatalf("doc %d = %q,%v, want %q", id, got, ok, want)
		}
	}
}
