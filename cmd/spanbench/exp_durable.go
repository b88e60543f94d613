package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"spanjoin"
)

func init() {
	register("ED", "Durability — WAL ingest throughput by fsync policy; recovery time vs log length, before and after a snapshot", runED)
}

// edIngest adds every doc through the given corpus and times the loop;
// the durable corpora ack per their fsync policy, so the table prices
// exactly what a caller of Add pays for each durability level.
func edIngest(c *spanjoin.Corpus, docs []string) (time.Duration, error) {
	start := time.Now()
	for _, d := range docs {
		if _, err := c.AddErrCtx(context.Background(), d); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// edBuild writes n docs into a fresh data directory (fsync never: the
// log bytes are identical under every policy) and optionally snapshots,
// leaving behind the recovery workload for edOpen to time.
func edBuild(dir string, docs []string, snapshot bool) error {
	c, err := spanjoin.Open(dir, spanjoin.WithSync(spanjoin.SyncNever))
	if err != nil {
		return err
	}
	for _, d := range docs {
		if _, err := c.AddErrCtx(context.Background(), d); err != nil {
			c.Close()
			return err
		}
	}
	if snapshot {
		if err := c.Snapshot(context.Background()); err != nil {
			c.Close()
			return err
		}
	}
	return c.Close()
}

func runED(quick bool) {
	nDocs := 4000
	recoverSizes := []int{1000, 4000}
	if quick {
		nDocs = 500
		recoverSizes = []int{200, 500}
	}
	docs := ecDocs(nDocs)
	var bytes int
	for _, d := range docs {
		bytes += len(d)
	}

	fmt.Printf("Corpus: %d synthetic documents, %.1f MiB. Durable corpora write each Add to a\n",
		nDocs, float64(bytes)/(1<<20))
	fmt.Println("CRC-checked write-ahead log before acking; the fsync policy says when the ack")
	fmt.Println("implies stable storage (always: before the ack; interval: within 100ms; never:")
	fmt.Println("only on graceful Close). RAM is the baseline in-memory corpus.")
	fmt.Println()

	t := newTable("backend", "fsync", "docs", "wall time", "docs/s", "µs/doc")
	type cfg struct {
		label  string
		fsync  string
		policy spanjoin.SyncPolicy
		ram    bool
	}
	cfgs := []cfg{
		{"ram", "—", 0, true},
		{"wal", "never", spanjoin.SyncNever, false},
		{"wal", "interval", spanjoin.SyncInterval, false},
		{"wal", "always", spanjoin.SyncAlways, false},
	}
	for _, cf := range cfgs {
		var c *spanjoin.Corpus
		if cf.ram {
			c = spanjoin.NewCorpus()
		} else {
			dir, err := os.MkdirTemp("", "spanbench-ed")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			c, err = spanjoin.Open(dir, spanjoin.WithSync(cf.policy))
			if err != nil {
				panic(err)
			}
		}
		wall, err := edIngest(c, docs)
		if err != nil {
			panic(err)
		}
		if err := c.Close(); err != nil {
			panic(err)
		}
		t.add(cf.label, cf.fsync, nDocs,
			wall.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(nDocs)/wall.Seconds()),
			fmt.Sprintf("%.1f", float64(wall.Microseconds())/float64(nDocs)))
	}
	t.print()

	fmt.Println()
	fmt.Println("Recovery replays the newest snapshot plus the log on top of it, so a snapshot")
	fmt.Println("trades one sequential rewrite now for replaying (and re-checksumming) every")
	fmt.Println("record on the next start. Open time is the full crash-recovery path.")
	fmt.Println()

	t2 := newTable("log docs", "snapshot", "open time", "snapshot docs", "replayed records")
	for _, n := range recoverSizes {
		for _, snap := range []bool{false, true} {
			dir, err := os.MkdirTemp("", "spanbench-ed-rec")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			if err := edBuild(dir, docs[:n], snap); err != nil {
				panic(err)
			}
			start := time.Now()
			c, err := spanjoin.Open(dir)
			if err != nil {
				panic(err)
			}
			openTime := time.Since(start)
			ds := c.DurabilityStats()
			if int(ds.RecoveredDocs) != n {
				panic(fmt.Sprintf("ED: recovered %d docs, want %d", ds.RecoveredDocs, n))
			}
			if err := c.Close(); err != nil {
				panic(err)
			}
			snapLabel := "no"
			if snap {
				snapLabel = "yes"
			}
			t2.add(n, snapLabel, openTime.Round(10*time.Microsecond),
				ds.RecoveredDocs-ds.ReplayedRecords, ds.ReplayedRecords)
		}
	}
	t2.print()

	fmt.Println()
	fmt.Println("Reading: fsync always prices one fsync per Add — orders of magnitude over RAM —")
	fmt.Println("while interval and never keep ingest within a small factor of in-memory speed,")
	fmt.Println("shifting durability to a 100ms window or to graceful shutdown. Recovery scales")
	fmt.Println("with records replayed: after a snapshot the log is empty and Open is near-flat.")
}
