package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"netout"
	"netout/internal/gen"
	"netout/servebench/oracle"
)

// query is one distinct query of a stream: its structured form (which the
// oracle evaluates) and the OQL text sent to the server.
type query struct {
	spec oracle.Query
	top  int
	text string
}

// workload is one traffic mix: how the servers run, which distinct queries
// the stream draws from and in what order, and how the run is sliced.
type workload struct {
	name    string
	measure string
	// conns is the number of closed-loop client connections (capped at
	// nproc by the caller).
	conns int
	// cacheMB is the cache budget of the cached strategy (0: no cache).
	cacheMB int
	// shards is the number of -shard-serve processes behind the
	// coordinator (0: a single -serve process).
	shards   int
	distinct []query
	stream   []int // indices into distinct, in send order
	// probe is the distinct query whose first complete answer ends set-up:
	// the same kind of query for every seed, and a cheap one.
	probe int
	// warmup is how many stream queries are sent before timing starts;
	// slice is how many completions make one throughput slice.
	warmup, slice int
}

var workloadNames = []string{"interactive", "scan-pathsim", "sharded-net"}

// Generator settings. The network is the repository's synthetic DBLP
// generator at scale 1 (1,057 authors, 4,860 papers, 48 venues, 790 terms);
// the seed varies its structure, not its size.
const (
	netScale           = 1
	interactiveAnchors = 300
	interactiveStream  = 4000
	anchorZipf         = 0.9
	featureZipf        = 0.7
	interactiveCacheMB = 4
	scanRounds         = 40
)

// buildNetwork generates the seeded network file at path and returns the
// graph as the servers will load it.
func buildNetwork(seed int64, path string) (*netout.Graph, error) {
	cfg := netout.ScaledGenConfig(netScale)
	cfg.Seed = seed
	g, _, err := netout.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := netout.SaveGraph(path, g); err != nil {
		return nil, err
	}
	return netout.LoadGraph(path)
}

func feat(path string, weight float64) oracle.Feature {
	return oracle.Feature{Path: strings.Split(path, "."), Weight: weight}
}

func allAuthors() oracle.Set { return oracle.Set{Type: "author"} }

func venueAuthors(name string) oracle.Set {
	return oracle.Set{Type: "venue", Names: []string{name}, Steps: []string{"paper", "author"}}
}

func coauthors(name string) oracle.Set {
	return oracle.Set{Type: "author", Names: []string{name}, Steps: []string{"paper", "author"}}
}

// newQuery renders spec as OQL.
func newQuery(spec oracle.Query, top int) query {
	var b strings.Builder
	b.WriteString("FIND OUTLIERS FROM ")
	writeSet(&b, spec.From)
	if spec.ComparedTo != nil {
		b.WriteString(" COMPARED TO ")
		writeSet(&b, *spec.ComparedTo)
	}
	b.WriteString(" JUDGED BY ")
	for i, f := range spec.Features {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strings.Join(f.Path, "."))
		if f.Weight != 1 {
			b.WriteString(" : " + strconv.FormatFloat(f.Weight, 'f', -1, 64))
		}
	}
	fmt.Fprintf(&b, " TOP %d;", top)
	return query{spec: spec, top: top, text: b.String()}
}

func writeSet(b *strings.Builder, s oracle.Set) {
	b.WriteString(s.Type)
	if s.Names != nil {
		b.WriteString("{")
		for i, n := range s.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Quote(n))
		}
		b.WriteString("}")
	}
	for _, st := range s.Steps {
		b.WriteString("." + st)
	}
}

// pickAnchors draws up to n distinct authors whose coauthor set
// (author{X}.paper.author, X included) has between minSet and maxSet
// members, so every seed's stream asks queries of about the same size.
func pickAnchors(g *netout.Graph, r *rand.Rand, n, minSet, maxSet int) []string {
	author, _ := g.Schema().TypeByName("author")
	o := oracle.New(g)
	var out []string
	vs := g.VerticesOfType(author)
	for _, i := range r.Perm(len(vs)) {
		if len(out) == n {
			break
		}
		set, err := o.EvalSet(coauthors(g.Name(vs[i])))
		if err == nil && len(set) >= minSet && len(set) <= maxSet {
			out = append(out, g.Name(vs[i]))
		}
	}
	return out
}

// rankedVenues returns regular (community) venues at the given ranks of
// descending author-set size. Venue popularity is Zipfian by rank in every
// seed's network, so picking by rank keeps set sizes alike across seeds.
func rankedVenues(g *netout.Graph, ranks []int) []string {
	venue, _ := g.Schema().TypeByName("venue")
	o := oracle.New(g)
	type sized struct {
		name string
		n    int
	}
	var vs []sized
	for _, v := range g.VerticesOfType(venue) {
		if name := g.Name(v); strings.HasPrefix(name, "Venue-") {
			set, _ := o.EvalSet(venueAuthors(name))
			vs = append(vs, sized{name, len(set)})
		}
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].n != vs[j].n {
			return vs[i].n > vs[j].n
		}
		return vs[i].name < vs[j].name
	})
	out := make([]string, len(ranks))
	for i, k := range ranks {
		out[i] = vs[k].name
	}
	return out
}

// venueRanks places the nine venue-derived sets of the scan workloads
// across the popularity range (about 150 down to 50 authors at scale 1).
var venueRanks = []int{2, 6, 10, 14, 18, 22, 26, 30, 34}

// makeWorkload builds the named workload's query stream from seed.
func makeWorkload(name string, g *netout.Graph, seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "interactive":
		// A Zipf mix of coauthor sets under overlapping feature paths of
		// two to four hops: short paths are prefixes of long ones, so the
		// subpath cache can resume misses from cached prefixes.
		anchors := pickAnchors(g, r, interactiveAnchors, 8, 16)
		features := [][]oracle.Feature{
			{feat("author.paper.venue", 1)},
			{feat("author.paper.author", 1)},
			{feat("author.paper.venue.paper.author", 1)},
			{feat("author.paper.author.paper.venue", 1)},
			{feat("author.paper.term", 1)},
			{feat("author.paper.author.paper", 1)},
			{feat("author.paper.venue", 1), feat("author.paper.author.paper.venue", 2)},
			{feat("author.paper.author.paper.term", 1)},
		}
		w := &workload{name: name, measure: "netout", conns: 2, cacheMB: interactiveCacheMB,
			warmup: interactiveStream, slice: interactiveStream / 2}
		anchorPick := gen.NewZipfSampler(len(anchors), anchorZipf)
		featPick := gen.NewZipfSampler(len(features), featureZipf)
		index := map[string]int{}
		for i := 0; i < interactiveStream; i++ {
			q := newQuery(oracle.Query{
				From:     coauthors(anchors[anchorPick.Sample(r)]),
				Features: features[featPick.Sample(r)],
				Measure:  w.measure,
			}, 10)
			k, ok := index[q.text]
			if !ok {
				k = len(w.distinct)
				index[q.text] = k
				w.distinct = append(w.distinct, q)
			}
			w.stream = append(w.stream, k)
		}
		return w, nil
	case "scan-pathsim":
		// Whole-type and venue-derived sets under PathSim: pairwise scoring
		// over hundreds to a thousand candidates dominates every query. A
		// round holds three small, six medium and three large queries, so
		// the median latency falls inside the medium group and the tail
		// inside the large one.
		venues := rankedVenues(g, venueRanks)
		all := allAuthors()
		w := &workload{name: name, measure: "pathsim", conns: 1}
		add := func(spec oracle.Query, top int) {
			spec.Measure = w.measure
			w.distinct = append(w.distinct, newQuery(spec, top))
		}
		for i, v := range venues {
			if i%3 == 1 {
				add(oracle.Query{From: venueAuthors(v), Features: []oracle.Feature{feat("author.paper.venue", 1)}}, 10)
			} else {
				add(oracle.Query{From: venueAuthors(v), ComparedTo: &all, Features: []oracle.Feature{feat("author.paper.author", 1)}}, 10)
			}
		}
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.venue", 1)}}, 20)
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.author", 1)}}, 20)
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.venue", 1), feat("author.paper.author", 2)}}, 20)
		w.stream = rounds(r, len(w.distinct), scanRounds)
		w.probe, w.warmup, w.slice = 1, len(w.distinct), len(w.distinct)
		return w, nil
	case "sharded-net":
		// NetOut scans scattered over two shard processes: all authors and
		// venue sets, under one or two feature paths. A round holds four
		// small, five medium and three large queries, for the reason given
		// under scan-pathsim.
		venues := rankedVenues(g, venueRanks)
		all := allAuthors()
		w := &workload{name: name, measure: "netout", conns: 1, shards: 2}
		add := func(spec oracle.Query) {
			spec.Measure = w.measure
			w.distinct = append(w.distinct, newQuery(spec, 10))
		}
		for i, v := range venues {
			switch {
			case i%2 == 0:
				add(oracle.Query{From: venueAuthors(v), ComparedTo: &all,
					Features: []oracle.Feature{feat("author.paper.venue", 1), feat("author.paper.author", 1)}})
			case i%4 == 1:
				add(oracle.Query{From: venueAuthors(v), Features: []oracle.Feature{feat("author.paper.venue", 1)}})
			default:
				add(oracle.Query{From: venueAuthors(v), Features: []oracle.Feature{feat("author.paper.author", 1)}})
			}
		}
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.venue", 1)}})
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.author", 1)}})
		add(oracle.Query{From: all, Features: []oracle.Feature{feat("author.paper.venue", 1), feat("author.paper.term", 2)}})
		w.stream = rounds(r, len(w.distinct), scanRounds)
		w.probe, w.warmup, w.slice = 1, 5*len(w.distinct), 5*len(w.distinct)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// rounds returns n rounds, each a seeded permutation of 0..k-1.
func rounds(r *rand.Rand, k, n int) []int {
	out := make([]int, 0, k*n)
	for i := 0; i < n; i++ {
		out = append(out, r.Perm(k)...)
	}
	return out
}

// queryFile renders the distinct queries as a ;-separated OQL file (the
// SPM initialization set of the shard processes).
func (w *workload) queryFile() string {
	var b strings.Builder
	for _, q := range w.distinct {
		b.WriteString(q.text + "\n")
	}
	return b.String()
}
