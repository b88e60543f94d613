package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Every input spand receives — the corpus file and the request schedule —
// is a pure function of (workload, seed, seconds). The generators below
// draw from math/rand sources seeded per stream, so one seed reproduces a
// run byte for byte and a different seed changes every stream.

// opKind is one request type the benchmark issues.
type opKind int

const (
	opEvalFirst opKind = iota // GET /eval with q: a first page
	opEvalNext                // GET /eval with cursor: a resumed page
	opCount                   // GET /count
	opSample                  // GET /sample n=4
	opAdd                     // POST /add
	numOpKinds
)

var opNames = [numOpKinds]string{"eval_first", "eval_next", "count", "sample", "add"}

func (k opKind) String() string { return opNames[k] }

const (
	pageLimit = 16 // /eval limit of every page the benchmark requests
	sampleN   = 4  // /sample n
	crawlLen  = 4  // pages in a browse crawl: a first page + 3 cursor pages
)

// ecPatterns are spanbench EC's eight queries, evaluated in search mode.
var ecPatterns = []string{
	`mail{[a-z]+@[a-z]+\.[a-z]+}`,
	`user{[a-z]+}@`,
	`addr{[A-Z][a-z]+ [0-9]+}`,
	`city{Bruxelles|Gent|Liege}`,
	`word{police}`,
	`zip{[0-9][0-9][0-9][0-9]}`,
	`name{alice|bob|carol}`,
	`verb{visited|called|mailed}`,
}

// job is one scheduled arrival. A crawl is a first /eval page followed by
// Pages-1 cursor pages, each due when the previous one returned.
type job struct {
	Due     time.Duration // offset from the start of the measured window
	Kind    opKind        // opEvalFirst, opCount, opSample or opAdd
	Pattern string        // search-mode pattern (read ops)
	Literal string        // a byte string every match must contain ("" = none known)
	Pages   int           // opEvalFirst: pages in the session (≥ 1)
	Doc     string        // opAdd: the document body
}

// ops is the number of requests the job issues.
func (j job) ops() int {
	if j.Kind == opEvalFirst {
		return j.Pages
	}
	return 1
}

// jobType is one entry of a workload's traffic mix.
type jobType struct {
	copies int // of this type in every deck of jobs
	kind   opKind
	pages  int
	lookup bool // a never-seen point lookup instead of an EC pattern
}

// workload is one traffic mix against one corpus shape.
type workload struct {
	name    string
	docs    int     // initial corpus documents
	rate    float64 // offered job arrivals per second
	durable bool    // spand runs with -data and -fsync always
	mix     []jobType
}

// Offered rates keep spand at 15–35% of two cores, from its CPU per op
// measured over loopback at the seed (see README.md, "Offered load"). They
// are fixed so that every commit sees the same load.
var workloads = []workload{
	{
		name: "browse",
		docs: 300, rate: 3,
		mix: []jobType{
			{copies: 2, kind: opEvalFirst, pages: crawlLen},
			{copies: 3, kind: opCount},
			{copies: 1, kind: opSample},
		},
	},
	{
		name: "adhoc",
		docs: 3000, rate: 200,
		mix: []jobType{
			{copies: 1, kind: opCount, lookup: true},
			{copies: 1, kind: opEvalFirst, pages: 1, lookup: true},
		},
	},
	{
		name: "ingest",
		docs: 300, rate: 18, durable: true,
		mix: []jobType{
			{copies: 4, kind: opAdd},
			{copies: 2, kind: opCount, lookup: true},
			{copies: 1, kind: opEvalFirst, pages: 1},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seeded streams: each input draws from its own source so that adding a
// draw to one generator never shifts another.
const (
	streamCorpus   = 1
	streamSchedule = 2
	streamAdds     = 3
	streamWarmup   = 4
)

func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

var (
	names   = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	verbs   = []string{"visited", "called", "mailed", "met", "wrote to", "drove past"}
	streets = []string{"Kerkstraat", "Stationsstraat", "Molenstraat", "Dorpstraat", "Schoolstraat",
		"Nieuwstraat", "Kapelstraat", "Hoogstraat", "Veldstraat", "Beekstraat"}
	cities  = []string{"Bruxelles", "Gent", "Liege", "Antwerpen", "Brugge", "Leuven", "Namur", "Mons"}
	topics  = []string{"police", "report", "invoice", "meeting", "parcel", "lease", "permit"}
	domains = []string{"mail.be", "post.org", "web.com", "net.eu"}
	adjs    = []string{"late", "short", "long", "signed", "missing", "urgent"}
)

// address is one street address a generated document contains.
type address struct {
	street string
	num    int
	zip    int
	city   string
}

const (
	meanDocLen = 280  // bytes, before each document ends on a whole sentence (≈ 300)
	maxDocLen  = 4096 // bytes
)

// docLens draws n document lengths from a Pareto(α = 1.5) distribution —
// most documents are a few sentences, a few are forty times larger, so
// they load shard workers unevenly — scaled so that the lengths sum to
// n × meanDocLen (capped at maxDocLen). The fixed total keeps the corpus's
// size, and so the cost of a sweep, the same from seed to seed; the seed
// moves only where the bytes are.
func docLens(r *rand.Rand, n int) []int {
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = 1 / math.Pow(1-r.Float64(), 1/1.5)
	}
	// Scale the uncapped lengths so that, with the capped ones at
	// maxDocLen, they sum to the target; capping can push more lengths
	// over the cap, so repeat until none moves.
	target := float64(n * meanDocLen)
	capped := make([]bool, n)
	scale := 0.0
	for moved := true; moved; {
		var fixed, free float64
		for i, x := range raw {
			if capped[i] {
				fixed += maxDocLen
			} else {
				free += x
			}
		}
		scale = (target - fixed) / free
		moved = false
		for i, x := range raw {
			if !capped[i] && x*scale > maxDocLen {
				capped[i], moved = true, true
			}
		}
	}
	ls := make([]int, n)
	for i, x := range raw {
		ls[i] = min(int(x*scale), maxDocLen)
	}
	return ls
}

// genDoc writes sentences until the document reaches target bytes,
// appending every address it mentions to addrs.
func genDoc(r *rand.Rand, target int, addrs *[]address) string {
	var b strings.Builder
	pick := func(s []string) string { return s[r.Intn(len(s))] }
	for b.Len() < target {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch r.Intn(4) {
		case 0:
			a := address{street: pick(streets), num: 1 + r.Intn(999), zip: 1000 + r.Intn(9000), city: pick(cities)}
			*addrs = append(*addrs, a)
			fmt.Fprintf(&b, "%s %s %s %d, %d %s.", pick(names), pick(verbs), a.street, a.num, a.zip, a.city)
		case 1:
			fmt.Fprintf(&b, "%s %s %s at %s@%s.", pick(names), pick(verbs), pick(names), pick(names), pick(domains))
		case 2:
			fmt.Fprintf(&b, "the %s in %s was %s and %s called the police.", pick(topics), pick(cities), pick(adjs), pick(names))
		default:
			fmt.Fprintf(&b, "%s wrote about the %s for %s.", pick(names), pick(topics), pick(names))
		}
	}
	return b.String()
}

// genCorpus generates the workload's initial documents and the addresses
// they mention.
func genCorpus(w workload, seed int64) ([]string, []address) {
	return genDocs(rng(seed, streamCorpus), w.docs)
}

// genDocs generates n documents and the addresses they mention.
func genDocs(r *rand.Rand, n int) ([]string, []address) {
	var addrs []address
	docs := make([]string, n)
	for i, l := range docLens(r, n) {
		docs[i] = genDoc(r, l, &addrs)
	}
	return docs, addrs
}

// lookupGen draws never-repeated point-lookup patterns. Half the draws
// reuse an address the corpus contains (a hit), half draw a random one
// (nearly always a miss); either way the pattern text is new, so the
// compiled-query cache cannot serve it.
type lookupGen struct {
	r     *rand.Rand
	addrs []address
	used  map[string]bool
}

func newLookupGen(r *rand.Rand, addrs []address, used map[string]bool) *lookupGen {
	return &lookupGen{r: r, addrs: addrs, used: used}
}

// next returns a fresh pattern and a literal every match must contain.
func (g *lookupGen) next() (pattern, literal string) {
	for {
		var a address
		if len(g.addrs) > 0 && g.r.Intn(2) == 0 {
			a = g.addrs[g.r.Intn(len(g.addrs))]
		} else {
			a = address{street: streets[g.r.Intn(len(streets))], num: 1 + g.r.Intn(999),
				zip: 1000 + g.r.Intn(9000), city: cities[g.r.Intn(len(cities))]}
		}
		if g.r.Intn(2) == 0 {
			literal = fmt.Sprintf("%d %s", a.zip, a.city)
			pattern = fmt.Sprintf("z{%d} c{%s}", a.zip, a.city)
		} else {
			literal = fmt.Sprintf("%s %d, ", a.street, a.num)
			pattern = fmt.Sprintf("s{%s %d}, z{[0-9][0-9][0-9][0-9]} c{[A-Z][a-z]+}", a.street, a.num)
		}
		if !g.used[pattern] {
			g.used[pattern] = true
			return pattern, literal
		}
	}
}

// genSchedule draws the measured window's jobs. Arrivals are a Poisson
// process conditioned on its count: rate × seconds arrival times drawn
// uniformly over the window. Job types are dealt from a shuffled deck
// holding the mix's copies of each type, and EC patterns from a shuffled
// deck of all eight, so every run carries the same proportions and only
// their order moves with the seed. rate > 0 overrides the workload's
// offered rate.
func genSchedule(w workload, seed int64, seconds int, rate float64, addrs []address, used map[string]bool) []job {
	if rate <= 0 {
		rate = w.rate
	}
	r := rng(seed, streamSchedule)
	lookups := newLookupGen(r, addrs, used)
	window := time.Duration(seconds) * time.Second
	n := int(rate*float64(seconds) + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Int63n(int64(window)))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })

	var deck []jobType
	for _, t := range w.mix {
		for c := 0; c < t.copies; c++ {
			deck = append(deck, t)
		}
	}
	patterns := append([]string(nil), ecPatterns...)
	jobs := make([]job, n)
	nAdds := 0
	for i := range jobs {
		if i%len(deck) == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		t := deck[i%len(deck)]
		j := job{Due: due[i], Kind: t.kind, Pages: t.pages}
		switch {
		case t.kind == opAdd:
			nAdds++
		case t.lookup:
			j.Pattern, j.Literal = lookups.next()
		default:
			if i%len(patterns) == 0 {
				r.Shuffle(len(patterns), func(a, b int) { patterns[a], patterns[b] = patterns[b], patterns[a] })
			}
			j.Pattern = patterns[i%len(patterns)]
		}
		jobs[i] = j
	}
	// Added documents come from their own stream, with their own fixed total.
	adds, _ := genDocs(rng(seed, streamAdds), nAdds)
	for i := range jobs {
		if jobs[i].Kind == opAdd {
			jobs[i].Doc, adds = adds[0], adds[1:]
		}
	}
	return jobs
}

// genWarmup draws the unmeasured jobs that run before the window: every
// EC pattern once (compiled-query cache and plan warm) when the mix reads
// EC patterns, plus lookups whose patterns the schedule never uses when it
// issues lookups.
func genWarmup(w workload, seed int64, addrs []address, used map[string]bool) []job {
	var ec, lookups bool
	for _, t := range w.mix {
		ec = ec || (t.kind != opAdd && !t.lookup)
		lookups = lookups || t.lookup
	}
	var jobs []job
	if ec {
		for _, p := range ecPatterns {
			jobs = append(jobs, job{Kind: opCount, Pattern: p})
		}
	}
	if lookups {
		g := newLookupGen(rng(seed, streamWarmup), addrs, used)
		for i := 0; i < 64; i++ {
			p, lit := g.next()
			jobs = append(jobs, job{Kind: opCount, Pattern: p, Literal: lit})
		}
	}
	return jobs
}

// inputs is everything one seed generates for one workload.
type inputs struct {
	docs     []string
	schedule []job
	warmup   []job
}

func genInputs(w workload, seed int64, seconds int, rate float64) inputs {
	docs, addrs := genCorpus(w, seed)
	used := make(map[string]bool)
	sched := genSchedule(w, seed, seconds, rate, addrs, used)
	return inputs{docs: docs, schedule: sched, warmup: genWarmup(w, seed, addrs, used)}
}

// corpusFile is the -lines file spand loads: one document per line.
func corpusFile(docs []string) string {
	return strings.Join(docs, "\n") + "\n"
}

// opCounts tallies the requests a schedule issues, per op kind.
func opCounts(jobs []job) [numOpKinds]int {
	var n [numOpKinds]int
	for _, j := range jobs {
		n[j.Kind]++
		if j.Kind == opEvalFirst {
			n[opEvalNext] += j.Pages - 1
		}
	}
	return n
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
