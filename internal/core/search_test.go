package core

import (
	"fmt"
	"slices"
)

// searchModel is a state of a model the interleaving checkers walk. key
// appends the state's canonical encoding to b: two states with equal keys
// have the same futures. next calls yield with every move the state allows
// and the state the move leads to, until yield returns false.
type searchModel[S any, M fmt.Stringer] interface {
	key(b []byte) []byte
	next(yield func(M, S) bool)
}

// searchResult is what one exhaustive exploration found: how many states,
// the longest shortest path to one, and the first broken invariant as the
// moves that reach it followed by what broke.
type searchResult struct {
	states, depth int
	violation     []string
}

// search visits every state reachable from root breadth first, each key
// once. expanded sees each state before its moves, reached every state a
// move leads to before it is deduplicated, with the moves from root to it;
// either stops the search by returning what broke.
func search[S searchModel[S, M], M fmt.Stringer](root S, expanded func(S) []string, reached func(s S, path func() []string) []string) searchResult {
	type node struct {
		s      S
		parent int
		via    M
		depth  int
	}
	nodes := []node{{s: root, parent: -1}}
	path := func(i int) []string {
		var out []string
		for ; i > 0; i = nodes[i].parent {
			out = append(out, nodes[i].via.String())
		}
		slices.Reverse(out)
		return out
	}
	buf := root.key(nil)
	seen := map[string]bool{string(buf): true}
	var res searchResult
	for i := 0; i < len(nodes) && res.violation == nil; i++ {
		cur := nodes[i]
		var zero S
		nodes[i].s = zero // only the path back is kept
		res.depth = max(res.depth, cur.depth)
		if broke := expanded(cur.s); broke != nil {
			res.violation = append(path(i), broke...)
			break
		}
		var via M
		to := func() []string { return append(path(i), via.String()) }
		cur.s.next(func(m M, next S) bool {
			via = m
			if broke := reached(next, to); broke != nil {
				res.violation = append(to(), broke...)
				return false
			}
			buf = next.key(buf[:0])
			if !seen[string(buf)] {
				seen[string(buf)] = true
				nodes = append(nodes, node{s: next, parent: i, via: m, depth: cur.depth + 1})
			}
			return true
		})
	}
	res.states = len(nodes)
	return res
}
