package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"netout"
	"netout/servebench/oracle"
)

// tolerance is the relative error allowed between a served score and the
// oracle's. The engine sums in a different order (Equation (1), merged
// sparse dots), so exact equality is not expected; 1e-9 is far below any
// gap between distinct scores the streams produce.
const tolerance = 1e-9

// reply is the part of a /query response the checks read.
type reply struct {
	Entries    []entry `json:"entries"`
	Partial    bool    `json:"partial"`
	Skipped    int     `json:"skipped"`
	Candidates int     `json:"candidates"`
	References int     `json:"references"`
	TotalUs    int64   `json:"total_us"`
}

type entry struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// expected is what a correct answer to one distinct query must satisfy.
type expected struct {
	ans oracle.Answer
	// names maps candidate names to vertex IDs.
	names map[string]netout.VertexID
	// ref, when set, is the in-process unsharded engine's result, which a
	// sharded answer must equal bit for bit.
	ref *netout.Result
}

// checker verifies replies against the oracle and against each other.
type checker struct {
	w   *workload
	exp []expected
	// first holds the first reply seen for each distinct query, which
	// every repeat within the run must equal exactly.
	mu    sync.Mutex
	first map[int]*reply
}

// newChecker evaluates every distinct query with the oracle (and, for the
// sharded workload, with an unsharded in-process engine) before any server
// starts, spreading the oracle over nproc goroutines.
func newChecker(g *netout.Graph, w *workload) (*checker, error) {
	c := &checker{w: w, exp: make([]expected, len(w.distinct)), first: map[int]*reply{}}
	author, _ := g.Schema().TypeByName("author")
	names := map[string]netout.VertexID{}
	for _, v := range g.VerticesOfType(author) {
		names[g.Name(v)] = v
	}
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			o := oracle.New(g)
			for i := k; i < len(w.distinct); i += workers {
				ans, err := o.Answer(w.distinct[i].spec)
				if err != nil {
					errs[k] = fmt.Errorf("oracle on %q: %w", w.distinct[i].text, err)
					return
				}
				c.exp[i] = expected{ans: ans, names: names}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if w.shards > 0 {
		m, err := netout.ParseMeasure(w.measure)
		if err != nil {
			return nil, err
		}
		eng := netout.NewEngine(g, netout.WithMeasure(m), netout.WithQueryParallelism(1))
		defer eng.Close()
		for i, q := range w.distinct {
			res, err := eng.Execute(q.text)
			if err != nil {
				return nil, fmt.Errorf("unsharded engine on %q: %w", q.text, err)
			}
			c.exp[i].ref = res
		}
	}
	return c, nil
}

// check verifies one HTTP reply to distinct query i and returns it decoded.
func (c *checker) check(i, status int, body []byte) (*reply, error) {
	q := c.w.distinct[i]
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding reply: %v", err)
	}
	if rep.Partial {
		return nil, fmt.Errorf("partial answer")
	}
	if err := c.exp[i].verify(&rep, q.top); err != nil {
		return nil, err
	}
	if err := c.sameAsFirst(i, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// checkResult verifies an in-process engine result to distinct query i by
// the same rules as an HTTP reply.
func (c *checker) checkResult(i int, r *netout.Result) error {
	rep := reply{Partial: r.Partial, Skipped: len(r.Skipped), Candidates: r.CandidateCount, References: r.ReferenceCount}
	for _, e := range r.Entries {
		rep.Entries = append(rep.Entries, entry{Name: e.Name, Score: e.Score})
	}
	if rep.Partial {
		return fmt.Errorf("partial answer")
	}
	if err := c.exp[i].verify(&rep, c.w.distinct[i].top); err != nil {
		return err
	}
	return c.sameAsFirst(i, &rep)
}

func (c *checker) sameAsFirst(i int, rep *reply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[i]; ok {
		if err := sameReply(prev, rep); err != nil {
			return fmt.Errorf("repeat differs from the first answer: %v", err)
		}
	} else {
		c.first[i] = rep
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= tolerance*math.Max(1, math.Abs(want))
}

// verify applies the oracle checks to one decoded reply.
func (e *expected) verify(rep *reply, top int) error {
	a := e.ans
	if rep.Candidates != a.Candidates || rep.References != a.References {
		return fmt.Errorf("set sizes %d/%d, oracle %d/%d", rep.Candidates, rep.References, a.Candidates, a.References)
	}
	if rep.Skipped != a.Skipped {
		return fmt.Errorf("%d skipped, oracle %d", rep.Skipped, a.Skipped)
	}
	want := len(a.Scores)
	if want > top {
		want = top
	}
	if len(rep.Entries) != want {
		return fmt.Errorf("%d entries, want %d", len(rep.Entries), want)
	}
	returned := map[netout.VertexID]bool{}
	for k, en := range rep.Entries {
		v, ok := e.names[en.Name]
		if !ok || returned[v] {
			return fmt.Errorf("entry %d: unknown or repeated candidate %q", k, en.Name)
		}
		returned[v] = true
		score, ok := a.Scores[v]
		if !ok {
			return fmt.Errorf("entry %d: %q is not a scored candidate", k, en.Name)
		}
		if !near(en.Score, score) {
			return fmt.Errorf("entry %d: %q scored %v, oracle %v", k, en.Name, en.Score, score)
		}
		if k > 0 && en.Score < rep.Entries[k-1].Score {
			return fmt.Errorf("entries %d and %d descend", k-1, k)
		}
	}
	if len(rep.Entries) > 0 {
		kth := rep.Entries[len(rep.Entries)-1].Score
		for v, s := range a.Scores {
			if !returned[v] && s < kth && !near(s, kth) {
				return fmt.Errorf("unreturned candidate %d has oracle score %v below the k-th %v", v, s, kth)
			}
		}
	}
	if r := e.ref; r != nil {
		if r.Partial || len(r.Entries) != len(rep.Entries) || len(r.Skipped) != rep.Skipped {
			return fmt.Errorf("differs from the unsharded engine in shape")
		}
		for k, en := range r.Entries {
			if en.Name != rep.Entries[k].Name || math.Float64bits(en.Score) != math.Float64bits(rep.Entries[k].Score) {
				return fmt.Errorf("entry %d differs from the unsharded engine: %q %v vs %q %v",
					k, rep.Entries[k].Name, rep.Entries[k].Score, en.Name, en.Score)
			}
		}
	}
	return nil
}

// sameReply reports whether two replies carry identical answers (timing
// and correlation fields aside).
func sameReply(a, b *reply) error {
	if a.Skipped != b.Skipped || a.Candidates != b.Candidates || a.References != b.References || len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("shape differs")
	}
	for k := range a.Entries {
		if a.Entries[k].Name != b.Entries[k].Name || math.Float64bits(a.Entries[k].Score) != math.Float64bits(b.Entries[k].Score) {
			return fmt.Errorf("entry %d differs", k)
		}
	}
	return nil
}
