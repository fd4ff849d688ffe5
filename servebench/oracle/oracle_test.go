package oracle

import (
	"fmt"
	"math"
	"testing"

	"netout"
)

// table1 builds the toy network of the paper's Table 1: 100 reference
// authors and the candidates Sarah, Rob, Lucy, Joe and Emma, each with the
// listed number of papers in VLDB, KDD, STOC and SIGGRAPH.
func table1(t *testing.T) (*netout.Graph, []string) {
	t.Helper()
	s := netout.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := netout.NewBuilder(s)
	venues := map[string]netout.VertexID{}
	for _, name := range []string{"VLDB", "KDD", "STOC", "SIGGRAPH"} {
		venues[name] = b.MustAddVertex(v, name)
	}
	papers := 0
	addAuthor := func(name string, counts [4]int) {
		au := b.MustAddVertex(a, name)
		for k, ven := range []string{"VLDB", "KDD", "STOC", "SIGGRAPH"} {
			for i := 0; i < counts[k]; i++ {
				papers++
				pp := b.MustAddVertex(p, fmt.Sprintf("paper%d", papers))
				b.MustAddEdge(pp, au)
				b.MustAddEdge(pp, venues[ven])
			}
		}
	}
	refs := make([]string, 100)
	for i := range refs {
		refs[i] = fmt.Sprintf("Ref%03d", i)
		addAuthor(refs[i], [4]int{10, 10, 1, 1})
	}
	addAuthor("Sarah", [4]int{10, 10, 1, 1})
	addAuthor("Rob", [4]int{0, 1, 20, 20})
	addAuthor("Lucy", [4]int{0, 5, 10, 10})
	addAuthor("Joe", [4]int{0, 0, 0, 2})
	addAuthor("Emma", [4]int{0, 0, 0, 30})
	return b.Build(), refs
}

// TestTable2 reproduces the paper's Table 2 (values rounded to two
// decimals, as printed in the paper and EXPERIMENTS.md).
func TestTable2(t *testing.T) {
	g, refs := table1(t)
	names := []string{"Sarah", "Rob", "Lucy", "Joe", "Emma"}
	want := map[string][]float64{
		"netout":  {100, 6.24, 31.11, 50, 3.33},
		"pathsim": {100, 9.97, 32.79, 1.94, 5.44},
		"cossim":  {100, 12.43, 32.83, 7.04, 7.04},
	}
	author, _ := g.Schema().TypeByName("author")
	for measure, exp := range want {
		ans, err := New(g).Answer(Query{
			From:       Set{Type: "author", Names: names},
			ComparedTo: &Set{Type: "author", Names: refs},
			Features:   []Feature{{Path: []string{"author", "paper", "venue"}, Weight: 1}},
			Measure:    measure,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Candidates != 5 || ans.References != 100 || ans.Skipped != 0 {
			t.Fatalf("%s: sizes %+v", measure, ans)
		}
		for i, n := range names {
			v, _ := g.VertexByName(author, n)
			if got := ans.Scores[v]; math.Abs(got-exp[i]) > 0.005 {
				t.Errorf("%s(%s) = %.4f, want %.2f", measure, n, got, exp[i])
			}
		}
	}
}

// TestSetsAndSkips checks naive set expansion, path counting with shared
// intermediate vertices, and the zero-visibility rules on a small network.
func TestSetsAndSkips(t *testing.T) {
	s := netout.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := netout.NewBuilder(s)
	x := b.MustAddVertex(a, "X")
	y := b.MustAddVertex(a, "Y")
	z := b.MustAddVertex(a, "Z") // no papers: invisible under every path
	vldb := b.MustAddVertex(v, "VLDB")
	for i := 0; i < 2; i++ {
		pp := b.MustAddVertex(p, fmt.Sprintf("p%d", i))
		b.MustAddEdge(pp, x)
		b.MustAddEdge(pp, y)
		b.MustAddEdge(pp, vldb)
	}
	g := b.Build()
	o := New(g)
	set, err := o.EvalSet(Set{Type: "author", Names: []string{"X"}, Steps: []string{"paper", "author"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0] != x || set[1] != y {
		t.Fatalf("coauthors of X = %v, want [%d %d]", set, x, y)
	}
	// X reaches Y through two papers: two path instances.
	phi, err := o.Phi([]string{"author", "paper", "author"}, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(phi) != 2 || phi[0] != (coord{x, 2}) || phi[1] != (coord{y, 2}) {
		t.Fatalf("Φ_APA(X) = %v", phi)
	}
	ans, err := o.Answer(Query{
		From:     Set{Type: "author"},
		Features: []Feature{{Path: []string{"author", "paper", "venue"}, Weight: 1}},
		Measure:  "netout",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Candidates != 3 || ans.Skipped != 1 || len(ans.Scores) != 2 {
		t.Fatalf("answer %+v", ans)
	}
	if _, ok := ans.Scores[z]; ok {
		t.Fatal("invisible candidate was scored")
	}
	// κ(X,X)=4, κ(X,Y)=4, κ(X,Z)=0: Ω(X) = (4+4+0)/4.
	if ans.Scores[x] != 2 {
		t.Fatalf("Ω(X) = %v, want 2", ans.Scores[x])
	}
}

// TestWeightedAverageRenormalises checks that a candidate invisible under
// one feature path is scored by the paths that see it alone, not deflated
// by the weight of the path that says nothing about it.
func TestWeightedAverageRenormalises(t *testing.T) {
	s := netout.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := netout.NewBuilder(s)
	x := b.MustAddVertex(a, "X")
	w := b.MustAddVertex(a, "W")
	vldb := b.MustAddVertex(v, "VLDB")
	px := b.MustAddVertex(p, "px")
	b.MustAddEdge(px, x)
	b.MustAddEdge(px, vldb)
	pw := b.MustAddVertex(p, "pw") // no venue: W is invisible under APV
	b.MustAddEdge(pw, w)
	g := b.Build()
	ans, err := New(g).Answer(Query{
		From: Set{Type: "author"},
		Features: []Feature{
			{Path: []string{"author", "paper", "venue"}, Weight: 1},
			{Path: []string{"author", "paper", "author"}, Weight: 3},
		},
		Measure: "netout",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under APA, W reaches only itself: Ω = κ(W,W)/κ(W,W) = 1, and the
	// average over the one path that sees W is 3·1/3.
	if ans.Skipped != 0 || ans.Scores[w] != 1 || ans.Scores[x] != 1 {
		t.Fatalf("answer %+v, want W and X both scored 1", ans)
	}
}
