package sepengine

import (
	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// dualTreeEngine is the dual-tree cycle separator (SNIPPETS.md §2): the
// non-tree edges of the configuration's BFS tree T form a spanning tree
// T* of the dual (the interdigitating-trees theorem), and cutting T* at a
// dual edge e splits the faces exactly into the inside and outside of the
// fundamental cycle of e in T ∪ {e}. A tree-weight decomposition over T*
// — faces weighted by the vertices anchored to them — therefore estimates
// every fundamental cycle's inside weight in one bottom-up sweep, and the
// engine probes the fundamental edges whose estimated split is closest to
// n/2.
//
// The estimate charges boundary vertices to one incident face, so the
// ranking is approximate and every probe is exact-checked. Outside
// triangulations the Lipton–Tarjan guarantee does not apply and the
// virtual-closure tier backs the engine up; a typed ErrNoSeparator
// reports instances where nothing probed balances.
type dualTreeEngine struct{}

func (dualTreeEngine) Name() string { return "dual-tree-bfs" }

func (dualTreeEngine) FindCycleSeparator(cfg *weights.Config) (*Result, error) {
	n := cfg.G.N()
	ops := dualTreeOps(n)
	Charge(cfg, "dual-tree-bfs", ops)

	fund := cfg.FundamentalEdges()
	if len(fund) == 0 {
		sep, err := searchCandidates(cfg, treeCandidate(cfg))
		if err != nil {
			return nil, err
		}
		return finish(cfg, "dual-tree-bfs", sep, ops)
	}

	dual := cfg.Emb.BuildDual()
	fs := dual.Faces
	nf := fs.Count()

	// Dual adjacency over the fundamental (non-tree) primal edges only.
	deg := make([]int32, nf+1)
	for _, e := range fund {
		deg[dual.Side[e][0]+1]++
		deg[dual.Side[e][1]+1]++
	}
	off := deg
	for f := 1; f <= nf; f++ {
		off[f] += off[f-1]
	}
	adj := make([]int32, off[nf])
	fill := make([]int32, nf)
	for _, e := range fund {
		f0, f1 := dual.Side[e][0], dual.Side[e][1]
		//planarvet:narrowok e is a primal edge id and AddEdge bounds the edge count to MaxInt32/2
		adj[off[f0]+fill[f0]] = int32(e)
		fill[f0]++
		//planarvet:narrowok e is a primal edge id and AddEdge bounds the edge count to MaxInt32/2
		adj[off[f1]+fill[f1]] = int32(e)
		fill[f1]++
	}

	// Anchor every vertex to the face of its first dart and accumulate
	// per-face weights (separator vertices land on one side of their
	// cycle; the exact check absorbs the slack).
	faceW := make([]int, nf)
	for v := 0; v < n; v++ {
		if d := cfg.Emb.FirstDart(v); d >= 0 {
			faceW[fs.FaceOf[d]]++
		}
	}

	// BFS the dual tree from the outer face, recording the entering dual
	// edge of every face, then sweep children-before-parents to get the
	// subtree weight under each dual tree edge.
	parentEdge := make([]int32, nf)
	for f := range parentEdge {
		parentEdge[f] = -1
	}
	order := make([]int32, 0, nf)
	visited := make([]bool, nf)
	visited[cfg.Outer] = true
	//planarvet:narrowok cfg.Outer indexed visited above, so it is a face index < nf ≤ 2m ≤ MaxInt32
	order = append(order, int32(cfg.Outer))
	for head := 0; head < len(order); head++ {
		f := int(order[head])
		for _, e32 := range adj[off[f]:off[f+1]] {
			e := int(e32)
			g := dual.Side[e][0] + dual.Side[e][1] - f
			if !visited[g] {
				visited[g] = true
				parentEdge[g] = e32
				//planarvet:narrowok g is a face index < nf ≤ 2m ≤ MaxInt32
				order = append(order, int32(g))
			}
		}
	}
	subW := append([]int(nil), faceW...)
	for i := len(order) - 1; i > 0; i-- {
		f := int(order[i])
		if pe := parentEdge[f]; pe >= 0 {
			p := dual.Side[pe][0] + dual.Side[pe][1] - f
			subW[p] += subW[f]
		}
	}

	// Rank: the subtree weight under a dual tree edge estimates the
	// vertices inside the fundamental cycle of its primal edge; probe the
	// edges whose split is closest to n/2 first. Fundamental edges not on
	// the dual tree (parallel dual connections) fall back to the exact
	// face-weight formula for their score.
	onDualTree := make([]bool, cfg.G.M())
	for f := 0; f < nf; f++ {
		if pe := parentEdge[f]; pe >= 0 {
			onDualTree[pe] = true
		}
	}
	inside := make(map[int]int, len(fund))
	for f := 0; f < nf; f++ {
		if pe := parentEdge[f]; pe >= 0 {
			inside[int(pe)] = subW[f]
		}
	}
	cands := make([]candidate, 0, len(fund))
	for _, e := range fund {
		var score int
		if onDualTree[e] {
			score = absDiff(2*inside[e], n)
		} else {
			score = absDiff(2*cfg.Weight(e), n)
		}
		cands = append(cands, fundamentalCandidate(cfg, e, score, separator.PhaseDualTree))
	}
	// Virtual-closure backup tier, scored after every fundamental cycle.
	cands = append(cands, virtualPairCandidates(cfg, 3*n)...)
	sep, err := searchCandidates(cfg, cands)
	if err != nil {
		return nil, err
	}
	return finish(cfg, "dual-tree-bfs", sep, ops)
}

// dualTreeOps is the charged profile: the dual spanning structure (a
// Borůvka-style forest over face leaders), one subtree aggregation, the
// ranking range query, and the final path marking.
func dualTreeOps(n int) dist.Ops {
	return dist.SpanningForestOps(n).
		Plus(dist.Ops{TreeAgg: 1}).
		Plus(dist.PAProblemOps()).
		Plus(dist.MarkPathOps(n))
}

func init() { Register(dualTreeEngine{}) }
