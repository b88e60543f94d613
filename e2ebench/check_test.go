package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/server"
)

// fixture serves a small corpus in-process and records real responses for
// a crawl, a count, a sample and an add, so each test can corrupt one.
type fixture struct {
	o       *oracle
	exp     map[string]bounds
	jobs    []job
	results [][]*opResult
	docText func(uint64) (string, error)
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	docs := []string{
		"alice called the police. bob called the police.",
		"the police in Gent was late and carol called the police.",
		"no match here",
		strings.Repeat("police ", 15),
		"erin wrote about the police for frank. the police came.",
	}
	added := "the police were added later."
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithIndex())
	for _, d := range docs {
		c.Add(d)
	}
	ts := httptest.NewServer(server.New(c, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	d := newLoadClient(strings.TrimPrefix(ts.URL, "http://"))
	t.Cleanup(d.close)

	pattern := `word{police}`
	jobs := []job{
		{Kind: opEvalFirst, Pattern: pattern, Literal: "police", Pages: 2},
		{Kind: opCount, Pattern: pattern, Literal: "police"},
		{Kind: opSample, Pattern: pattern},
	}
	ctx := context.Background()
	f := &fixture{jobs: jobs}
	for ji, j := range jobs {
		f.results = append(f.results, d.runJob(ctx, ji, j, time.Now(), 0))
	}
	// The add runs last, so the reads above saw the initial corpus.
	f.jobs = append(f.jobs, job{Kind: opAdd, Doc: added})
	f.results = append(f.results, d.runJob(ctx, len(jobs), f.jobs[len(jobs)], time.Now(), 0))
	f.o = newOracle(docs, []string{added})
	var err error
	// Exact bounds: the reads ran before the add.
	if f.exp, err = newOracle(docs, nil).expect(jobs); err != nil {
		t.Fatal(err)
	}
	f.docText = func(id uint64) (string, error) { return d.fetchDoc(ctx, id) }
	if n := len(f.results[0]); n != 2 {
		t.Fatalf("crawl issued %d pages, want 2", n)
	}
	return f
}

func (f *fixture) failures() []string {
	for _, rs := range f.results {
		for _, r := range rs {
			r.failure = nil
		}
	}
	checkRun(f.o, f.exp, f.jobs, f.results, f.docText)
	return failureSummary(f.results)
}

func TestCheckerPassesRealResponses(t *testing.T) {
	f := newFixture(t)
	if fs := f.failures(); len(fs) != 0 {
		t.Fatalf("checks failed on correct responses: %v", fs)
	}
}

func TestCheckerFlagsCorruptedResponses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(f *fixture)
		want    string
	}{
		{"duplicate row across pages", func(f *fixture) {
			f.results[0][1].rows[0] = f.results[0][0].rows[3]
		}, "served on page 0 and again on page 1"},
		{"wrong page total", func(f *fixture) {
			f.results[0][0].trailer.Total = "99"
		}, "total 99, want"},
		{"short page", func(f *fixture) {
			p := f.results[0][0]
			p.rows = p.rows[:len(p.rows)-1]
		}, "rows (trailer says"},
		{"wrong count", func(f *fixture) {
			f.results[1][0].count = "3"
		}, "total 3, want"},
		{"row that is not a match", func(f *fixture) {
			sp := f.results[0][0].rows[0].Spans["word"]
			sp.End--
			sp.Text = sp.Text[:len(sp.Text)-1]
			f.results[0][0].rows[0].Spans["word"] = sp
		}, "is not a match"},
		{"span text that is not the document's", func(f *fixture) {
			sp := f.results[2][0].rows[0].Spans["word"]
			sp.Text = "POLICE"
			f.results[2][0].rows[0].Spans["word"] = sp
		}, "does not match the document"},
		{"add that reads back different bytes", func(f *fixture) {
			f.jobs[3].Doc = "something else"
		}, "reads back"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			tc.corrupt(f)
			fs := f.failures()
			if len(fs) != 1 || !strings.Contains(fs[0], tc.want) {
				t.Fatalf("failures %q, want exactly one containing %q", fs, tc.want)
			}
		})
	}
}

func TestCheckTotalBounds(t *testing.T) {
	b := bounds{lo: 10, hi: 14}
	for _, tc := range []struct {
		got string
		ok  bool
	}{{"10", true}, {"14", true}, {"12", true}, {"9", false}, {"15", false}, {"x", false}} {
		if _, err := checkTotal("count", tc.got, b); (err == nil) != tc.ok {
			t.Errorf("checkTotal(%s in [10, 14]) error = %v, want ok = %v", tc.got, err, tc.ok)
		}
	}
}
