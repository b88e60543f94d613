package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one typed figure: a number and its unit, never a string cell.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named set of figures.
type metrics map[string]metric

func (m metrics) ms(name string, d time.Duration) {
	m[name] = metric{float64(d.Nanoseconds()) / 1e6, "ms"}
}
func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{v, unit}
}

// quantile returns the q-quantile of ds by nearest rank (q in (0, 1]).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// provenance is what a reader needs to compare one run with another.
type provenance struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      int      `json:"seconds"`
	Trace        int      `json:"trace"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	SourceSHA256 string   `json:"source_sha256"`
	SpandFlags   []string `json:"spand_flags"`
}

func newProvenance(w workload, seed int64, seconds, trace int, root string, flags []string) provenance {
	return provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SourceSHA256: sourceDigest(root), SpandFlags: flags,
	}
}

// sourceDigest identifies the commit under test when the checkout is not
// a git repository: a SHA-256 over every go.mod and .go file's path and
// bytes, outside hidden directories.
func sourceDigest(root string) string {
	if root == "" {
		return ""
	}
	h := sha256.New()
	filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && path != root && strings.HasPrefix(fi.Name(), ".") {
			return filepath.SkipDir
		}
		if !fi.Mode().IsRegular() || !(strings.HasSuffix(path, ".go") || fi.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
