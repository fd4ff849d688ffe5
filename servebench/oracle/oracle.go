// Package oracle answers the benchmark's outlier queries straight from the
// paper's definitions, sharing no code with the engine it checks:
//
//   - Φ_P(v) counts the path instances of meta-path P that start at v
//     (Definitions 5–7), walking Graph.Neighbors hop by hop with edge
//     multiplicities;
//   - κ(a,b) = Φ_P(a)·Φ_P(b), and Ω is summed pairwise over the reference
//     set for NetOut, PathSim and CosSim (Definitions 9–10), with no
//     Equation (1) rewrite;
//   - a candidate with zero visibility under a path gets no score from it,
//     the weighted average over paths is renormalised by the weight of the
//     paths that see the candidate, and a candidate no path sees is skipped;
//   - sets are evaluated naively: named or whole-type anchors expanded one
//     hop at a time with set semantics.
//
// The oracle is slow on purpose (O(|Sc|·|Sr|) per path); the benchmark
// evaluates each distinct query once per run.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"netout"
)

// Set is a set expression of the forms the benchmark streams use: an
// anchor type, optionally restricted to named vertices, expanded through
// Steps (vertex type names).
type Set struct {
	Type  string
	Names []string // nil: every vertex of Type
	Steps []string
}

// Feature is one weighted feature meta-path, as vertex type names.
type Feature struct {
	Path   []string
	Weight float64
}

// Query is an outlier query: candidates From, compared to ComparedTo (nil:
// the candidates themselves), judged by Features under Measure ("netout",
// "pathsim" or "cossim").
type Query struct {
	From       Set
	ComparedTo *Set
	Features   []Feature
	Measure    string
}

// Answer is the oracle's full ranking input for one query.
type Answer struct {
	// Candidates and References are |Sc| and |Sr|.
	Candidates, References int
	// Scores holds Ω for every candidate some feature path sees.
	Scores map[netout.VertexID]float64
	// Skipped counts candidates no feature path sees.
	Skipped int
}

// Oracle evaluates queries over one graph. It memoises neighbor vectors and
// is not safe for concurrent use; give each goroutine its own.
type Oracle struct {
	g    *netout.Graph
	memo map[string]vec
}

// New returns an oracle over g.
func New(g *netout.Graph) *Oracle {
	return &Oracle{g: g, memo: map[string]vec{}}
}

// coord is one nonzero coordinate of a neighbor vector.
type coord struct {
	id  netout.VertexID
	val float64
}

// vec is a neighbor vector with ascending coordinates.
type vec []coord

func dot(a, b vec) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id < b[j].id:
			i++
		case a[i].id > b[j].id:
			j++
		default:
			s += a[i].val * b[j].val
			i++
			j++
		}
	}
	return s
}

func (o *Oracle) typeID(name string) (netout.TypeID, error) {
	t, ok := o.g.Schema().TypeByName(name)
	if !ok {
		return 0, fmt.Errorf("oracle: unknown vertex type %q", name)
	}
	return t, nil
}

// EvalSet returns the members of s in ascending vertex order.
func (o *Oracle) EvalSet(s Set) ([]netout.VertexID, error) {
	t, err := o.typeID(s.Type)
	if err != nil {
		return nil, err
	}
	cur := map[netout.VertexID]bool{}
	if s.Names == nil {
		for _, v := range o.g.VerticesOfType(t) {
			cur[v] = true
		}
	} else {
		for _, n := range s.Names {
			v, ok := o.g.VertexByName(t, n)
			if !ok {
				return nil, fmt.Errorf("oracle: no %s named %q", s.Type, n)
			}
			cur[v] = true
		}
	}
	for _, step := range s.Steps {
		st, err := o.typeID(step)
		if err != nil {
			return nil, err
		}
		next := map[netout.VertexID]bool{}
		for v := range cur {
			nbrs, _ := o.g.Neighbors(v, st)
			for _, u := range nbrs {
				next[u] = true
			}
		}
		cur = next
	}
	out := make([]netout.VertexID, 0, len(cur))
	for v := range cur {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Phi returns Φ_P(v): for every vertex u, the number of instances of path P
// from v to u, counting parallel edges by their multiplicity.
func (o *Oracle) Phi(path []string, v netout.VertexID) (vec, error) {
	key := fmt.Sprintf("%s/%d", strings.Join(path, "."), v)
	if x, ok := o.memo[key]; ok {
		return x, nil
	}
	cur := map[netout.VertexID]float64{v: 1}
	for _, step := range path[1:] {
		st, err := o.typeID(step)
		if err != nil {
			return nil, err
		}
		next := map[netout.VertexID]float64{}
		for w, n := range cur {
			nbrs, mults := o.g.Neighbors(w, st)
			for k, u := range nbrs {
				next[u] += n * float64(mults[k])
			}
		}
		cur = next
	}
	x := make(vec, 0, len(cur))
	for u, n := range cur {
		if n != 0 {
			x = append(x, coord{u, n})
		}
	}
	sort.Slice(x, func(i, j int) bool { return x[i].id < x[j].id })
	o.memo[key] = x
	return x, nil
}

// Answer evaluates q.
func (o *Oracle) Answer(q Query) (Answer, error) {
	cands, err := o.EvalSet(q.From)
	if err != nil {
		return Answer{}, err
	}
	refs := cands
	if q.ComparedTo != nil {
		if refs, err = o.EvalSet(*q.ComparedTo); err != nil {
			return Answer{}, err
		}
	}
	sum := make([]float64, len(cands))
	seenWeight := make([]float64, len(cands))
	for _, f := range q.Features {
		if len(f.Path) < 2 || f.Path[0] != q.From.elementType() {
			return Answer{}, fmt.Errorf("oracle: feature %v does not start at the candidates' type", f.Path)
		}
		refVecs := make([]vec, len(refs))
		refVis := make([]float64, len(refs))
		for j, v := range refs {
			if refVecs[j], err = o.Phi(f.Path, v); err != nil {
				return Answer{}, err
			}
			refVis[j] = dot(refVecs[j], refVecs[j])
		}
		for i, v := range cands {
			phi, err := o.Phi(f.Path, v)
			if err != nil {
				return Answer{}, err
			}
			kii := dot(phi, phi)
			if kii == 0 {
				continue // zero visibility: this path says nothing about v
			}
			omega, err := pairwise(q.Measure, phi, kii, refVecs, refVis)
			if err != nil {
				return Answer{}, err
			}
			sum[i] += f.Weight * omega
			seenWeight[i] += f.Weight
		}
	}
	a := Answer{Candidates: len(cands), References: len(refs), Scores: map[netout.VertexID]float64{}}
	for i, v := range cands {
		if seenWeight[i] == 0 {
			a.Skipped++
			continue
		}
		a.Scores[v] = sum[i] / seenWeight[i]
	}
	return a, nil
}

// pairwise sums the measure's pairwise term over every reference vertex;
// refVis[j] is κ(vj,vj).
func pairwise(measure string, phi vec, kii float64, refs []vec, refVis []float64) (float64, error) {
	var omega float64
	for j, r := range refs {
		kij, kjj := dot(phi, r), refVis[j]
		switch measure {
		case "netout": // normalized connectivity κ(vi,vj)/κ(vi,vi)
			omega += kij / kii
		case "pathsim": // 2κ(vi,vj)/(κ(vi,vi)+κ(vj,vj))
			omega += 2 * kij / (kii + kjj)
		case "cossim": // κ(vi,vj)/(‖Φ(vi)‖‖Φ(vj)‖); an invisible vj adds 0
			if kjj > 0 {
				omega += kij / math.Sqrt(kii*kjj)
			}
		default:
			return 0, fmt.Errorf("oracle: unknown measure %q", measure)
		}
	}
	return omega, nil
}

func (s Set) elementType() string {
	if len(s.Steps) > 0 {
		return s.Steps[len(s.Steps)-1]
	}
	return s.Type
}
