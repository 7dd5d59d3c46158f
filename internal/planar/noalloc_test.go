package planar

import (
	"testing"

	"planardfs/internal/graph"
)

// TestFaceTraceZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*Embedding).traceFacesInto: after
// TraceFaces has allocated the CSR storage once, re-tracing into the same
// Faces value performs zero allocations.
func TestFaceTraceZeroAlloc(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1) // darts 0,1
	g.MustAddEdge(0, 2) // darts 2,3
	g.MustAddEdge(1, 2) // darts 4,5
	emb, err := NewEmbedding(g, [][]int{{2, 0}, {4, 1}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}

	fs := emb.TraceFaces()
	want := fs.Count()
	allocs := testing.AllocsPerRun(100, func() {
		emb.traceFacesInto(fs)
	})
	if allocs != 0 {
		t.Fatalf("traceFacesInto allocates %.1f times, want 0", allocs)
	}
	if fs.Count() != want {
		t.Fatalf("retrace found %d faces, want %d", fs.Count(), want)
	}
}
