package planar

import (
	"slices"
	"testing"

	"planardfs/internal/graph"
)

// k4Embedded returns the embedded K4 of TestGenusOfK4Rotations with the
// outer face designated below the bottom edge.
func k4Embedded(t *testing.T) (*graph.Graph, *Embedding, int) {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	emb, err := FromNeighborOrders(g, [][]int{
		{2, 3, 1},
		{0, 3, 2},
		{1, 3, 0},
		{2, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := g.EdgeID(0, 1)
	outer := emb.OuterFaceOf(DartFrom(g, id, 1))
	return g, emb, outer
}

func TestRestrictToTriangle(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	// Restrict away the centre vertex 3.
	res, err := emb.RestrictTo([]int{0, 1, 2}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if res.G.N() != 3 || res.G.M() != 3 {
		t.Fatalf("restriction n=%d m=%d", res.G.N(), res.G.M())
	}
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	// The restricted outer face must be the triangle's outer side (length 3
	// both ways here, but must contain the dart 1->0 whose left side is the
	// parent outer region).
	// vs is listed in order, so sub-vertex i is parent vertex i.
	id, _ := res.G.EdgeID(0, 1)
	want := res.Emb.OuterFaceOf(DartFrom(res.G, id, 1))
	if res.Emb.OuterFaceOf(res.OuterDart) != want {
		t.Fatal("restricted outer face wrong")
	}
}

func TestRestrictToStar(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	// Keep the centre and two corners: a path 0-3-1 (plus edge 0-1).
	res, err := emb.RestrictTo([]int{0, 1, 3}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if res.G.M() != 3 {
		t.Fatalf("m=%d", res.G.M())
	}
	if res.OuterDart < 0 {
		t.Fatal("outer dart missing")
	}
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	// Orig lists the kept vertices in the order given.
	if !slices.Equal(res.Orig, []int{0, 1, 3}) {
		t.Fatalf("Orig = %v, want [0 1 3]", res.Orig)
	}
}

func TestRestrictToSingleVertex(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	res, err := emb.RestrictTo([]int{3}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if res.G.N() != 1 || res.G.M() != 0 || res.OuterDart != -1 {
		t.Fatalf("single-vertex restriction wrong: %+v", res)
	}
}

func TestRestrictToInnerRegion(t *testing.T) {
	// A 4x4-style nested structure: wheel with 6 rim vertices; restricting
	// to the hub and part of the rim must still find an outer dart.
	g := graph.New(7)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6)
		g.MustAddEdge(i, 6)
	}
	orders := make([][]int, 7)
	for i := 0; i < 6; i++ {
		orders[i] = []int{(i + 5) % 6, 6, (i + 1) % 6}
	}
	// Hub sees rim counterclockwise when rim is ccw: clockwise is reverse.
	orders[6] = []int{5, 4, 3, 2, 1, 0}
	emb, err := FromNeighborOrders(g, orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	id, _ := g.EdgeID(0, 1)
	outer := emb.OuterFaceOf(DartFrom(g, id, 1))
	res, err := emb.RestrictTo([]int{6, 0, 1, 2}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.OuterDart < 0 {
		t.Fatal("no outer dart")
	}
	// The restriction is outerplanar here: its outer face touches every
	// vertex.
	fs := res.Emb.TraceFaces()
	of := int(fs.FaceOf[res.OuterDart])
	seen := map[int]bool{}
	for _, v := range fs.FaceVertices(of) {
		seen[v] = true
	}
	if len(seen) != res.G.N() {
		t.Fatalf("outer face touches %d of %d vertices", len(seen), res.G.N())
	}
}
