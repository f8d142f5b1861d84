package dpf

import (
	"sort"

	"ashs/internal/sim"
)

// prunedStepCycles models the generated code's depth-bound test on a
// branch Demux skips after Reorder: one compare against the running best
// depth instead of a full field load + dispatch (trieStepCycles).
const prunedStepCycles = sim.Time(1)

// Reorder is the DCG loop applied to demux: it sorts every node's branch
// list by observed hit count (descending, ties keeping install order) and
// annotates each branch with the deepest terminal reachable below it.
// Demux then examines hot branches first, which establishes a deep best
// match early and lets it skip sibling branches whose whole subtree is
// strictly shallower — the match decision is provably unchanged (the
// property test drives random hit permutations against the linear-scan
// oracle), only the examination order and cost are.
//
// The depth bounds are valid only for the current trie shape; Insert and
// Remove clear the reordered flag, so a re-Reorder after churn re-enables
// pruning with fresh bounds. Hit counters keep accumulating either way.
func (e *Engine) Reorder() {
	e.annotate(0)
	e.reordered = true
}

// annotate computes per-branch maxDepth bottom-up and sorts node ni's
// branch list by hits, returning the deepest terminal depth relative to ni.
func (e *Engine) annotate(ni int32) int {
	deepest := 0 // ni itself: a terminal here is at relative depth 0
	var order []int32
	n := e.nodes.at(ni)
	for bi := n.first; bi != none; bi = e.branches.at(bi).next {
		b := e.branches.at(bi)
		b.maxDepth = 0
		for _, kid := range b.kids {
			if d := 1 + e.annotate(kid); d > b.maxDepth {
				b.maxDepth = d
			}
		}
		deepest = max(deepest, b.maxDepth)
		order = append(order, bi)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return e.branches.at(order[i]).hits > e.branches.at(order[j]).hits
	})
	link := &n.first
	for _, bi := range order {
		*link = bi
		link = &e.branches.at(bi).next
	}
	*link = none
	return deepest
}
