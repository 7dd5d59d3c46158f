package planar_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
)

// oracleRestrict is the whole-graph restriction RestrictTo replaced, kept
// as the reference: the induced subgraph, rotations filtered through a
// neighbour order, and the outer sub-face found by a union–find over all
// parent faces merged across every edge the subgraph lacks.
func oracleRestrict(emb *planar.Embedding, vs []int, outerFace int) (*planar.Restriction, error) {
	g := emb.Graph()
	sub, orig, err := g.InducedSubgraph(vs)
	if err != nil {
		return nil, err
	}
	subOf := make([]int, g.N())
	for i := range subOf {
		subOf[i] = -1
	}
	for i, v := range orig {
		subOf[v] = i
	}
	orders := make([][]int, sub.N())
	for i, v := range orig {
		d0 := emb.FirstDart(v)
		for d := d0; d >= 0; {
			if w := emb.HeadOf(d); subOf[w] >= 0 {
				orders[i] = append(orders[i], subOf[w])
			}
			if d = emb.NextCW(d); d == d0 {
				break
			}
		}
	}
	semb, err := planar.FromNeighborOrders(sub, orders)
	if err != nil {
		return nil, err
	}
	res := &planar.Restriction{G: sub, Emb: semb, Orig: orig, OuterDart: -1}
	if sub.M() == 0 {
		return res, nil
	}
	fs := emb.TraceFaces()
	uf := graph.NewUnionFind(fs.Count())
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeByID(e)
		if subOf[ed.U] < 0 || subOf[ed.V] < 0 {
			uf.Union(int(fs.FaceOf[2*e]), int(fs.FaceOf[2*e+1]))
		}
	}
	outerClass := uf.Find(outerFace)
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeByID(e)
		su, sv := subOf[ed.U], subOf[ed.V]
		if su < 0 || sv < 0 {
			continue
		}
		sid, _ := sub.EdgeID(su, sv)
		for dir, from := range []int{ed.U, ed.V} {
			if uf.Find(int(fs.FaceOf[2*e+dir])) == outerClass {
				res.OuterDart = planar.DartFrom(sub, sid, subOf[from])
				return res, nil
			}
		}
	}
	return nil, fmt.Errorf("oracle: no sub-dart borders the outer region")
}

// sameRestriction reports the first difference between two restrictions:
// vertex map, sub-edge list, rotations and (if outer) the outer dart.
func sameRestriction(got, want *planar.Restriction, outer bool) error {
	if !slices.Equal(got.Orig, want.Orig) {
		return fmt.Errorf("Orig %v, want %v", got.Orig, want.Orig)
	}
	if !slices.Equal(got.G.Edges(), want.G.Edges()) {
		return fmt.Errorf("sub-edges %v, want %v", got.G.Edges(), want.G.Edges())
	}
	for v := 0; v < want.G.N(); v++ {
		if a, b := got.Emb.Rotation(v), want.Emb.Rotation(v); !slices.Equal(a, b) {
			return fmt.Errorf("rotation of sub-vertex %d: %v, want %v", v, a, b)
		}
	}
	if outer && got.OuterDart != want.OuterDart {
		return fmt.Errorf("outer dart %d, want %d", got.OuterDart, want.OuterDart)
	}
	if outer && want.OuterDart >= 0 && got.Emb.OuterFaceOf(got.OuterDart) != want.Emb.OuterFaceOf(want.OuterDart) {
		return fmt.Errorf("outer sub-face differs")
	}
	return nil
}

// randomConnected grows a connected vertex set of size k from start by
// adding uniformly random frontier vertices, then shuffles it.
func randomConnected(rng *rand.Rand, g *graph.Graph, start, k int) []int {
	in := make([]bool, g.N())
	in[start] = true
	vs, frontier := []int{start}, slices.Clone(g.Neighbors(start))
	for len(vs) < k && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if in[v] {
			continue
		}
		in[v] = true
		vs = append(vs, v)
		frontier = append(frontier, g.Neighbors(v)...)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// band returns, shuffled, the component of the subgraph induced by the
// vertices at BFS distance r or r+1 from center that holds the first such
// vertex: an annulus on grids, whose complement lies on both of its sides.
func band(rng *rand.Rand, g *graph.Graph, center, r int) []int {
	dist := g.BFS(center).Dist
	in := make([]bool, g.N())
	first := -1
	for v, d := range dist {
		if d == r || d == r+1 {
			in[v] = true
			if first < 0 {
				first = v
			}
		}
	}
	if first < 0 {
		return nil
	}
	seen := make([]bool, g.N())
	seen[first] = true
	vs := []int{first}
	for i := 0; i < len(vs); i++ {
		for _, w := range g.Neighbors(vs[i]) {
			if in[w] && !seen[w] {
				seen[w] = true
				vs = append(vs, w)
			}
		}
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// TestRestrictMatchesOracle checks RestrictTo against the whole-graph
// oracle on random connected subsets in random order, and on annuli, across
// six families: same vertex map, sub-edges, rotations and outer dart. Each
// of the three outer-face rules must fire at least once.
func TestRestrictMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fired [4]int
	for _, fam := range []string{"grid", "stacked", "sparse", "polygon", "wheel", "cylinderish"} {
		for _, n := range []int{30, 150, 400} {
			in, err := gen.ByName(fam, n, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			g, outer := in.G, in.OuterFace()
			var subsets [][]int
			for i := 0; i < 20; i++ {
				k := 1 + rng.Intn(g.N())
				subsets = append(subsets, randomConnected(rng, g, rng.Intn(g.N()), k))
			}
			for i := 0; i < 6; i++ {
				if vs := band(rng, g, rng.Intn(g.N()), 1+rng.Intn(5)); vs != nil {
					subsets = append(subsets, vs)
				}
			}
			// The components dfs.Build restricts to: those of G minus a
			// connected set holding an outer-face vertex.
			for i := 0; i < 3; i++ {
				root := in.Emb.TraceFaces().FaceVertices(outer)[0]
				tree := randomConnected(rng, g, root, 1+rng.Intn(g.N()/2))
				removed := make([]bool, g.N())
				for _, v := range tree {
					removed[v] = true
				}
				for _, c := range g.ComponentsAvoidingMask(removed) {
					rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
					subsets = append(subsets, c)
				}
			}
			for _, vs := range subsets {
				want, err := oracleRestrict(in.Emb, vs, outer)
				if err != nil {
					t.Fatalf("%s n=%d: oracle: %v", fam, n, err)
				}
				got, how, err := in.Emb.RestrictWith(nil, vs, outer)
				if err != nil {
					t.Fatalf("%s n=%d |vs|=%d: %v", fam, n, len(vs), err)
				}
				if err := sameRestriction(got, want, true); err != nil {
					t.Fatalf("%s n=%d |vs|=%d (rule %d): %v", fam, n, len(vs), how, err)
				}
				fired[how]++
			}
		}
	}
	t.Logf("rules fired: none %d, (a) touch %d, (b) boundary %d, (c) search %d", fired[0], fired[1], fired[2], fired[3])
	for how := 1; how <= 3; how++ {
		if fired[how] == 0 {
			t.Errorf("outer-face rule %d never fired", how)
		}
	}
}

// TestRestrictArbitrarySubsets: on subsets that need not be connected,
// RestrictTo still builds the oracle's subgraph and rotations, and any
// outer dart it reports is a dart of the subgraph.
func TestRestrictArbitrarySubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, err := gen.ByName("stacked", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		vs := rng.Perm(in.G.N())[:1+rng.Intn(in.G.N())]
		want, err := oracleRestrict(in.Emb, vs, in.OuterFace())
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Emb.RestrictTo(vs, in.OuterFace())
		if err != nil {
			continue // a disconnected subset may have no rule that applies
		}
		if err := sameRestriction(got, want, false); err != nil {
			t.Fatalf("|vs|=%d: %v", len(vs), err)
		}
		if got.G.M() > 0 && (got.OuterDart < 0 || got.OuterDart >= 2*got.G.M()) {
			t.Fatalf("|vs|=%d: outer dart %d out of range", len(vs), got.OuterDart)
		}
	}
}

// TestRestrictErrorThenValid: a call that fails part-way through stamping
// its subset leaves the arena fit for the next call, which gives the fresh
// result.
func TestRestrictErrorThenValid(t *testing.T) {
	in, err := gen.ByName("grid", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	outer := in.OuterFace()
	vs := []int{11, 12, 13, 22, 23, 33}
	want, err := oracleRestrict(in.Emb, vs, outer)
	if err != nil {
		t.Fatal(err)
	}
	a := planar.StaleRestrictArena(0, 0, 0, 0)
	for _, bad := range [][]int{{11, 12, 11}, {11, 12, in.G.N()}, {11, -1}} {
		if _, _, err := in.Emb.RestrictWith(a, bad, outer); err == nil {
			t.Fatalf("RestrictTo(%v) accepted", bad)
		}
		got, _, err := in.Emb.RestrictWith(a, vs, outer)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRestriction(got, want, true); err != nil {
			t.Fatalf("after RestrictTo(%v) failed: %v", bad, err)
		}
	}
	if _, err := in.Emb.RestrictTo(vs, -1); err == nil {
		t.Fatal("outer face -1 accepted")
	}
}

// TestRestrictEpochWrap: an arena whose epoch reaches MaxInt32 clears its
// stamps and restarts at 1, so stamps left from an old epoch 1 never match.
func TestRestrictEpochWrap(t *testing.T) {
	in, err := gen.ByName("stacked", 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	outer := in.OuterFace()
	a := planar.StaleRestrictArena(in.G.N(), in.G.M(), math.MaxInt32-2, 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		vs := randomConnected(rng, in.G, rng.Intn(in.G.N()), 10+rng.Intn(60))
		want, err := oracleRestrict(in.Emb, vs, outer)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := in.Emb.RestrictWith(a, vs, outer)
		if err != nil {
			t.Fatalf("call %d at epoch %d: %v", i, a.Epoch(), err)
		}
		if err := sameRestriction(got, want, true); err != nil {
			t.Fatalf("call %d at epoch %d: %v", i, a.Epoch(), err)
		}
	}
	if a.Epoch() != 3 {
		t.Fatalf("epoch %d after wrapping, want 3", a.Epoch())
	}
}

// TestSharedEmbeddingConcurrent drives TraceFaces and RestrictTo from
// several goroutines on one shared embedding, as concurrent planard jobs
// do; run under -race it checks the memoized trace and the arena pool.
func TestSharedEmbeddingConcurrent(t *testing.T) {
	in, err := gen.ByName("grid", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	outer := in.OuterFace()
	var subsets [][]int
	var wants []*planar.Restriction
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		vs := randomConnected(rng, in.G, rng.Intn(in.G.N()), 1+rng.Intn(200))
		want, err := oracleRestrict(in.Emb, vs, outer)
		if err != nil {
			t.Fatal(err)
		}
		subsets, wants = append(subsets, vs), append(wants, want)
	}
	// A fresh embedding, so the goroutines race for its first trace.
	off, darts := flatRotation(in.Emb)
	emb, err := planar.NewEmbeddingFlat(in.G, off, darts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if emb.TraceFaces() != emb.TraceFaces() {
				errs <- fmt.Errorf("TraceFaces not memoized")
				return
			}
			for i := range subsets {
				k := (i + 5*w) % len(subsets)
				got, err := emb.RestrictTo(subsets[k], outer)
				if err == nil {
					err = sameRestriction(got, wants[k], true)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d subset %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// flatRotation returns emb's rotation system in NewEmbeddingFlat's layout.
func flatRotation(emb *planar.Embedding) (off, darts []int32) {
	g := emb.Graph()
	off = make([]int32, 0, g.N()+1)
	for v := 0; v < g.N(); v++ {
		off = append(off, int32(len(darts)))
		for _, d := range emb.Rotation(v) {
			darts = append(darts, int32(d))
		}
	}
	return append(off, int32(len(darts))), darts
}
