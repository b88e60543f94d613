package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spandProc is one running spand child process.
type spandProc struct {
	cmd    *exec.Cmd
	addr   string
	setup  time.Duration // exec to the "ready" line
	stderr *bytes.Buffer
	waited chan error
}

// spandArgs is the command line every workload runs spand with.
func spandArgs(w workload, corpusPath, dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-shards", "2", "-workers", "2", "-index",
		"-max-concurrent", "2", "-max-queue", "8", "-lines", corpusPath}
	if w.durable {
		args = append(args, "-data", dataDir, "-fsync", "always", "-snapshot-bytes", strconv.Itoa(snapshotBytes))
	}
	return args
}

// snapshotBytes is ingest's -snapshot-bytes: low enough that several
// snapshot cycles complete in every measured window.
const snapshotBytes = 4 << 10

// startSpand execs spand and waits for its "ready" line.
func startSpand(bin string, args []string) (*spandProc, error) {
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &spandProc{cmd: cmd, stderr: new(bytes.Buffer), waited: make(chan error, 1)}
	cmd.Stderr = p.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spand: %w", err)
	}
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	timeout := time.After(60 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				err := cmd.Wait()
				return nil, fmt.Errorf("spand exited before ready (%v): %s", err, p.stderr.String())
			}
			if a, found := strings.CutPrefix(l, "listening on "); found {
				p.addr = a
			}
			if strings.HasPrefix(l, "ready") {
				p.setup = time.Since(t0)
				// Keep draining stdout so spand never blocks on it.
				go func() {
					for range lines {
					}
					p.waited <- cmd.Wait()
				}()
				return p, nil
			}
		case <-timeout:
			cmd.Process.Kill()
			for range lines {
			}
			cmd.Wait()
			return nil, fmt.Errorf("spand not ready after 60s: %s", p.stderr.String())
		}
	}
}

// stop shuts spand down (SIGTERM) and waits for it to exit, killing it if
// it does not within 10s. spand installs its SIGTERM handler just after
// printing "ready", so a stop right after set-up may end it by the signal's
// default action instead of a graceful shutdown; both count as stopped.
func (p *spandProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.waited:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("spand exit: %v: %s", err, p.stderr.String())
		}
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.waited
		return fmt.Errorf("spand ignored SIGTERM for 10s")
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's utime+stime from /proc/<pid>/stat.
func (p *spandProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// memStatus reads one /proc/<pid>/status memory field (VmRSS: resident
// now; VmHWM: peak resident) in bytes.
func (p *spandProc) memStatus(field string) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, field+":"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads spand's resident set every interval until stop is
// closed, then sends the samples on the returned channel.
func (p *spandProc) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		var samples []time.Duration // bytes, typed for quantile
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if n, err := p.memStatus("VmRSS"); err == nil {
				samples = append(samples, time.Duration(n))
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += uint64(fi.Size())
		}
		return nil
	})
	return n, err
}
