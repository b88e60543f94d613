package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a := genInputs(w, 7, 3, 0)
		b := genInputs(w, 7, 3, 0)
		if corpusFile(a.docs) != corpusFile(b.docs) {
			t.Errorf("%s: seed 7 generated two different corpus files", w.name)
		}
		if !reflect.DeepEqual(a.schedule, b.schedule) || !reflect.DeepEqual(a.warmup, b.warmup) {
			t.Errorf("%s: seed 7 generated two different schedules", w.name)
		}
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	for _, w := range workloads {
		a := genInputs(w, 7, 3, 0)
		b := genInputs(w, 8, 3, 0)
		if corpusFile(a.docs) == corpusFile(b.docs) {
			t.Errorf("%s: seeds 7 and 8 generated the same corpus file", w.name)
		}
		if reflect.DeepEqual(a.schedule, b.schedule) {
			t.Errorf("%s: seeds 7 and 8 generated the same schedule", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	for _, w := range workloads {
		in := genInputs(w, 3, 4, 0)
		if want := int(w.rate*4 + 0.5); len(in.schedule) != want {
			t.Errorf("%s: %d jobs in 4s, want %d", w.name, len(in.schedule), want)
		}
		for i := 1; i < len(in.schedule); i++ {
			if in.schedule[i].Due < in.schedule[i-1].Due {
				t.Fatalf("%s: job %d due before job %d", w.name, i, i-1)
			}
		}
		if len(in.docs) != w.docs {
			t.Errorf("%s: %d docs, want %d", w.name, len(in.docs), w.docs)
		}
		var size int
		for _, d := range in.docs {
			if strings.ContainsRune(d, '\n') {
				t.Fatalf("%s: a document spans lines, so -lines would split it", w.name)
			}
			if len(d) > maxDocLen+128 {
				t.Errorf("%s: a %d-byte document exceeds the cap", w.name, len(d))
			}
			size += len(d)
		}
		if lo := w.docs * meanDocLen; size < lo || size > lo*3/2 {
			t.Errorf("%s: corpus of %d bytes, want about %d", w.name, size, lo)
		}
	}
}

// Lookups must be new: a repeated pattern would hit the compiled-query
// cache and blur adhoc's contrast with browse.
func TestLookupsNeverRepeat(t *testing.T) {
	w, _ := workloadByName("adhoc")
	in := genInputs(w, 5, 10, 0)
	seen := make(map[string]bool)
	for _, j := range append(append([]job(nil), in.warmup...), in.schedule...) {
		if seen[j.Pattern] {
			t.Fatalf("pattern %q issued twice", j.Pattern)
		}
		seen[j.Pattern] = true
	}
}
