package prefilter_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"spanjoin/internal/prefilter"
)

// addressDocs is BenchmarkFirstTimeQuery's corpus: 3,000 parcel notes,
// each naming a street, a zip code and a city, and the zip and street of
// each as a two-literal requirement that few documents satisfy.
func addressDocs() (docs []string, reqs []prefilter.Requirement) {
	streets := []string{"Elm Street", "Oak Avenue", "Mill Road", "Church Lane", "Station Road", "High Street"}
	cities := []string{"Ashford", "Bexley", "Carlton", "Dover", "Exeter", "Fulham"}
	r := rand.New(rand.NewSource(3000))
	docs = make([]string, 3000)
	reqs = make([]prefilter.Requirement, len(docs))
	for i := range docs {
		zip, street := 1000+r.Intn(9000), streets[r.Intn(len(streets))]
		docs[i] = fmt.Sprintf("Parcel %d leaves for %d %s, %d %s. Call the depot before noon if nobody is home.",
			i, 1+r.Intn(999), street, zip, cities[r.Intn(len(cities))])
		reqs[i] = prefilter.New(strconv.Itoa(zip), street)
	}
	return docs, reqs
}

// BenchmarkIndexBuild indexes the 3,000 address documents into one fresh
// index per op.
func BenchmarkIndexBuild(b *testing.B) {
	docs, _ := addressDocs()
	b.ReportAllocs()
	for b.Loop() {
		ix := prefilter.NewIndex()
		for _, d := range docs {
			ix.Add(d)
		}
	}
}

// BenchmarkCandidates looks up one zip-and-street requirement per op in
// the index of the 3,000 address documents: a rare zip gram intersected
// with street grams that a sixth of the documents hold and with grams
// every document holds.
func BenchmarkCandidates(b *testing.B) {
	docs, reqs := addressDocs()
	ix := prefilter.NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if pos, _ := ix.Candidates(reqs[i%len(reqs)]); len(pos) == 0 {
			b.Fatalf("%v: no candidates; its own document holds it", reqs[i%len(reqs)])
		}
		i++
	}
}
