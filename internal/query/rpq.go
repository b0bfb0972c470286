package query

import (
	"context"
	"fmt"

	"graphrepair/internal/hypergraph"
)

// NFA is a nondeterministic finite automaton over edge labels, the
// query alphabet of regular path queries. States are 0..States-1;
// Start is the initial state.
type NFA struct {
	States int
	Start  int
	Accept []bool
	trans  map[int]map[hypergraph.Label][]int
}

// NewNFA returns an NFA with n states, none accepting, no transitions.
func NewNFA(n, start int) *NFA {
	if n < 1 || start < 0 || start >= n {
		panic(fmt.Sprintf("query: bad NFA shape n=%d start=%d", n, start))
	}
	return &NFA{States: n, Start: start, Accept: make([]bool, n),
		trans: map[int]map[hypergraph.Label][]int{}}
}

// AddTransition adds q --label--> p.
func (a *NFA) AddTransition(q int, label hypergraph.Label, p int) {
	if a.trans[q] == nil {
		a.trans[q] = map[hypergraph.Label][]int{}
	}
	a.trans[q][label] = append(a.trans[q][label], p)
}

// SetAccept marks state q accepting.
func (a *NFA) SetAccept(q int) { a.Accept[q] = true }

// Next returns the states reachable from q on one label.
func (a *NFA) Next(q int, label hypergraph.Label) []int {
	return a.trans[q][label]
}

// PathNFA builds an automaton accepting exactly the label sequence
// given (a fixed-length path query).
func PathNFA(labels ...hypergraph.Label) *NFA {
	a := NewNFA(len(labels)+1, 0)
	for i, l := range labels {
		a.AddTransition(i, l, i+1)
	}
	a.SetAccept(len(labels))
	return a
}

// StarNFA builds an automaton accepting any sequence (including the
// empty one) over the given labels: l1|l2|...)*.
func StarNFA(labels ...hypergraph.Label) *NFA {
	a := NewNFA(1, 0)
	for _, l := range labels {
		a.AddTransition(0, l, 0)
	}
	a.SetAccept(0)
	return a
}

// RPQ is a regular path query evaluator prepared for one grammar and
// one automaton. Preparation computes, bottom-up, the product
// skeletons sk(A) ⊆ (ext × states)²: whether external node j can be
// reached in state q' from external node i in state q inside val(A).
// This extends the paper's Thm.-6 skeletons to the product with an
// NFA — the "regular path queries" extension named in the paper's
// conclusion as future work.
//
// Like the Engine it is built from, a prepared RPQ is immutable: any
// number of goroutines may call Matches on one shared RPQ (per-call
// state lives in the engine's scratch pool). The automaton must not
// be mutated after preparation.
type RPQ struct {
	e   *Engine
	nfa *NFA
	// skel[ruleIdx(A)][i*Q+q][j*Q+q'] — product reachability among
	// externals.
	skel [][][]bool
}

// pstate is a node of a search graph paired with an NFA state.
type pstate struct {
	n int64
	q int
}

// NewRPQ prepares a regular path query evaluator in O(|G|·Q²) for Q
// NFA states (bounded rank).
func (e *Engine) NewRPQ(nfa *NFA) *RPQ {
	r, _ := e.NewRPQContext(context.Background(), nfa)
	return r
}

// NewRPQContext is NewRPQ with cooperative cancellation: the product
// skeleton precomputation polls ctx between rules, bounding the
// O(|G|·Q²) preparation under a deadline.
func (e *Engine) NewRPQContext(ctx context.Context, nfa *NFA) (*RPQ, error) {
	r := &RPQ{e: e, nfa: nfa, skel: make([][][]bool, len(e.rules))}
	Q := nfa.States
	s := e.getScratch()
	defer e.putScratch(s)
	tk := ticker{ctx: ctx}
	var rhsTk ticker // rules are small: poll between them only
	for _, nt := range e.bottomUp {
		if err := tk.check("query: rpq skeletons"); err != nil {
			return nil, err
		}
		rhs := e.rule(nt).rhs
		ext := rhs.Ext()
		clear(s.padj)
		p := rulePart(rhs)
		r.productArcs(s.padj, &p)
		sk := make([][]bool, len(ext)*Q)
		for i, src := range ext {
			for q := 0; q < Q; q++ {
				clear(s.pseen)
				_, _ = s.productBFS(&rhsTk, pstate{int64(src), q}, nil) // a zero ticker never fails
				row := make([]bool, len(ext)*Q)
				for j, dst := range ext {
					for p := 0; p < Q; p++ {
						row[j*Q+p] = (i != j || q != p) && s.pseen[pstate{int64(dst), p}]
					}
				}
				sk[i*Q+q] = row
			}
		}
		r.skel[e.ruleIdx(nt)] = sk
	}
	return r, nil
}

// productArcs adds the product of p with the NFA to adj: terminal
// edges advance the automaton, nonterminal edges not expanded as
// child instances contribute their product skeletons.
func (r *RPQ) productArcs(adj map[pstate][]pstate, p *part) {
	e, Q := r.e, r.nfa.States
	for id := range p.h.EdgesSeq() {
		lab, att := p.h.Label(id), p.h.Att(id)
		if e.g.IsTerminal(lab) {
			a, b := e.name(p, att[0]), e.name(p, att[1])
			for q := 0; q < Q; q++ {
				for _, to := range r.nfa.Next(q, lab) {
					adj[pstate{a, q}] = append(adj[pstate{a, q}], pstate{b, to})
				}
			}
			continue
		}
		if p.expanded(id) {
			continue
		}
		for iq, row := range r.skel[e.ruleIdx(lab)] {
			from := pstate{e.name(p, att[iq/Q]), iq % Q}
			for jp, ok := range row {
				if ok {
					adj[from] = append(adj[from], pstate{e.name(p, att[jp/Q]), jp % Q})
				}
			}
		}
	}
}

// productBFS searches the product graph s.padj from src, marking
// s.pseen, and reports whether it dequeued a state satisfying stop
// (nil: search everything).
func (s *scratch) productBFS(tk *ticker, src pstate, stop func(pstate) bool) (bool, error) {
	s.pseen[src] = true
	s.pqueue = append(s.pqueue[:0], src)
	for head := 0; head < len(s.pqueue); head++ {
		if err := tk.check("query: rpq match"); err != nil {
			return false, err
		}
		x := s.pqueue[head]
		if stop != nil && stop(x) {
			return true, nil
		}
		for _, y := range s.padj[x] {
			if !s.pseen[y] {
				s.pseen[y] = true
				s.pqueue = append(s.pqueue, y)
			}
		}
	}
	return false, nil
}

// Matches reports whether some path from derived node u to derived
// node v spells a word the automaton accepts. Like Reachable, it glues
// the right-hand sides along both G-representations (product
// skeletons standing in for unexpanded subtrees) and runs one BFS in
// the product, O(|G|·Q²) overall.
func (r *RPQ) Matches(u, v int64) (bool, error) {
	return r.MatchesContext(context.Background(), u, v)
}

// MatchesContext is Matches with cooperative cancellation: ctx is
// polled at product-BFS frontier expansions. Per-call state lives in
// the engine's pooled scratch, so concurrent callers never share
// mutable memory.
func (r *RPQ) MatchesContext(ctx context.Context, u, v int64) (bool, error) {
	e := r.e
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.locateInto(&s.loc1, u); err != nil {
		return false, err
	}
	if err := e.locateInto(&s.loc2, v); err != nil {
		return false, err
	}
	e.expandPaths(&s.loc1, &s.loc2, func(p *part) { r.productArcs(s.padj, p) })
	tk := ticker{ctx: ctx}
	return s.productBFS(&tk, pstate{u, r.nfa.Start}, func(x pstate) bool {
		return x.n == v && r.nfa.Accept[x.q]
	})
}
