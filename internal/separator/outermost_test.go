package separator

import (
	"math/rand"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// mixedTree grows a spanning tree from root by attaching, at each step, an
// unvisited neighbour of either the newest tree vertex (a DFS-like step) or
// a random one (a BFS-like step), so it has both ancestor-type and
// non-ancestor fundamental edges.
func mixedTree(t *testing.T, g *graph.Graph, root int, rng *rand.Rand) *spanning.Tree {
	t.Helper()
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	open := []int{root}
	for len(open) > 0 {
		i := len(open) - 1
		if rng.Intn(2) == 0 {
			i = rng.Intn(len(open))
		}
		u := open[i]
		var free []int
		for _, w := range g.Neighbors(u) {
			if parent[w] == -2 {
				free = append(free, w)
			}
		}
		if len(free) == 0 {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			continue
		}
		w := free[rng.Intn(len(free))]
		parent[w] = u
		open = append(open, w)
	}
	tr, err := spanning.NewFromParents(root, parent)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// outermostConfigs calls fn on a configuration per gen.Families member,
// n ∈ {20, 80, 200}, two outer-face roots and {BFS, DeepDFS, mixed} trees.
func outermostConfigs(t *testing.T, fn func(name string, cfg *weights.Config, rng *rand.Rand)) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	for _, fam := range gen.Families {
		for _, n := range []int{20, 80, 200} {
			in, err := gen.ByName(fam, n, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			outer := in.Emb.TraceFaces().FaceVertices(in.OuterFace())
			for _, root := range []int{outer[0], outer[len(outer)/2]} {
				for _, kind := range []string{"bfs", "dfs", "mixed"} {
					fn(fam+"/"+kind, rootedConfig(t, in, kind, root, rng), rng)
				}
			}
		}
	}
}

// TestPickOutermostScanMatchesWalk checks that the one-scan
// pickOutermostAmong returns exactly what the pairwise walk returns, on
// full fundamental sets and on shuffled subsets of non-ancestor edges
// (which stand in for phase 4's hiding set), and that both its scan and its
// fallback to the walk fire.
func TestPickOutermostScanMatchesWalk(t *testing.T) {
	scans, walks := 0, 0
	check := func(name string, cfg *weights.Config, cand []int) {
		if len(cand) == 0 {
			return
		}
		ancestor := false
		for _, e := range cand {
			ancestor = ancestor || cfg.Classify(e).Ancestor
		}
		if ancestor {
			walks++
		} else {
			scans++
		}
		if got, want := pickOutermostAmong(cfg, cand), pickOutermostWalk(cfg, cand); got != want {
			t.Fatalf("%s: |cand|=%d (ancestor-type present: %v): scan picked %d, walk picked %d",
				name, len(cand), ancestor, got, want)
		}
	}
	outermostConfigs(t, func(name string, cfg *weights.Config, rng *rand.Rand) {
		fund := cfg.FundamentalEdges()
		check(name+" full", cfg, fund)
		rng.Shuffle(len(fund), func(a, b int) { fund[a], fund[b] = fund[b], fund[a] })
		check(name+" shuffled", cfg, fund)
		var plain []int
		for _, e := range fund {
			if !cfg.Classify(e).Ancestor {
				plain = append(plain, e)
			}
		}
		for i := 0; i < 16; i++ {
			rng.Shuffle(len(plain), func(a, b int) { plain[a], plain[b] = plain[b], plain[a] })
			k := len(plain)
			if k > 1 {
				k = 1 + rng.Intn(k)
			}
			check(name+" subset", cfg, plain[:k])
		}
	})
	t.Logf("scan path %d sets, walk fallback %d sets", scans, walks)
	if scans == 0 || walks == 0 {
		t.Fatalf("scan path fired %d times, walk fallback %d times; want both > 0", scans, walks)
	}
}

// TestEdgeContainedInFaceIsCotreeContainment checks the property the scan
// rests on: for a non-ancestor inner edge f, EdgeContainedInFace(e, f)
// holds exactly when f's region lies inside e's, where a fundamental edge's
// region is the subtree of the dual cotree (rooted at the outer face) below
// its dual edge.
func TestEdgeContainedInFaceIsCotreeContainment(t *testing.T) {
	pairs := 0
	outermostConfigs(t, func(name string, cfg *weights.Config, _ *rand.Rand) {
		fund := cfg.FundamentalEdges()
		if len(fund) == 0 {
			return
		}
		inner, lo, hi := cotreeIntervals(cfg, fund)
		within := func(f, e int) bool { // region(f) ⊆ region(e)
			a, b := inner[f], inner[e]
			return lo[b] <= lo[a] && lo[a] <= hi[b]
		}
		for _, f := range fund {
			if cfg.Classify(f).Ancestor {
				continue
			}
			for _, e := range fund {
				if e == f {
					continue
				}
				pairs++
				got := cfg.EdgeContainedInFace(cfg.Classify(e), f)
				if want := within(f, e); got != want {
					t.Fatalf("%s: EdgeContainedInFace(%v, %d) = %v, cotree containment %v",
						name, cfg.Classify(e), f, got, want)
				}
			}
		}
	})
	t.Logf("%d (outer, non-ancestor inner) pairs agree", pairs)
}

// cotreeIntervals builds the dual cotree by a BFS over faces from cfg.Outer
// through the fundamental (non-tree) edges. It returns, per fundamental
// edge, the face on its inner side (the child endpoint of its dual edge),
// and per face the preorder interval [lo, hi] of its cotree subtree.
func cotreeIntervals(cfg *weights.Config, fund []int) (inner map[int]int, lo, hi []int) {
	fs := cfg.Faces()
	nf := fs.Count()
	type arc struct{ to, edge int }
	adj := make([][]arc, nf)
	for _, e := range fund {
		a, b := int(fs.FaceOf[2*e]), int(fs.FaceOf[2*e+1])
		adj[a] = append(adj[a], arc{b, e})
		adj[b] = append(adj[b], arc{a, e})
	}
	inner = make(map[int]int, len(fund))
	seen := make([]bool, nf)
	children := make([][]int, nf)
	seen[cfg.Outer] = true
	queue := []int{cfg.Outer}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, ar := range adj[x] {
			if !seen[ar.to] {
				seen[ar.to] = true
				inner[ar.edge] = ar.to
				children[x] = append(children[x], ar.to)
				queue = append(queue, ar.to)
			}
		}
	}
	lo, hi = make([]int, nf), make([]int, nf)
	clock := 0
	var visit func(x int)
	visit = func(x int) {
		lo[x] = clock
		clock++
		for _, c := range children[x] {
			visit(c)
		}
		hi[x] = clock - 1
	}
	visit(cfg.Outer)
	if len(inner) != len(fund) {
		panic("separator test: dual cotree does not reach every fundamental edge")
	}
	return inner, lo, hi
}
