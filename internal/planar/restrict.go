package planar

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"planardfs/internal/graph"
)

// Restriction is an embedded induced subgraph together with the vertex
// mapping back to the parent graph and the designated outer face of the
// sub-embedding.
type Restriction struct {
	G   *graph.Graph
	Emb *Embedding
	// Orig maps sub-vertex -> original vertex.
	Orig []int
	// OuterDart is a dart of the sub-embedding lying on the face that
	// contains the parent embedding's outer region, or -1 if the subgraph
	// has no edges.
	OuterDart int
}

// outerCase records which of RestrictTo's three rules found the outer
// sub-face (DESIGN.md §13).
type outerCase uint8

const (
	outerNone     outerCase = iota // the subgraph has no edges
	outerTouch                     // (a) vs touches the parent outer face
	outerBoundary                  // (b) every boundary dart lands on one sub-face
	outerSearch                    // (c) search through G − vs from the outer face
)

// restrictArena is the pooled scratch of one RestrictTo call, grown to the
// largest parent graph it has served. Nothing is cleared between calls:
// stamp[v] == epoch marks v ∈ vs and seen[v] == epoch marks v visited by the
// case (c) search, and every other entry is read only after the current call
// wrote it.
type restrictArena struct {
	epoch   int32
	stamp   []int32 // per vertex: in vs this call
	seen    []int32 // per vertex: reached by the fallback search this call
	subOf   []int32 // per vertex: sub-vertex, valid where stamped
	subEdge []int32 // per parent edge: sub-edge, valid for this call's kept edges
	cand    []int32 // kept parent edges, ascending: cand[sid] is sub-edge sid's parent
	off     []int32 // flat sub-rotation offsets
	darts   []int32 // flat sub-rotation darts
	queue   []int32 // fallback search queue
}

var restrictPool = sync.Pool{New: func() any { return new(restrictArena) }}

// begin grows the arena to n vertices and m edges and opens a fresh epoch.
// When the epoch would overflow, the stamp arrays are cleared and the epoch
// restarts at 1, so a stale stamp can never match.
func (a *restrictArena) begin(n, m int) int32 {
	if len(a.stamp) < n {
		a.stamp = make([]int32, n)
		a.seen = make([]int32, n)
		a.subOf = make([]int32, n)
	}
	if len(a.subEdge) < m {
		a.subEdge = make([]int32, m)
	}
	if a.epoch == math.MaxInt32 {
		clear(a.stamp)
		clear(a.seen)
		a.epoch = 0
	}
	a.epoch++
	return a.epoch
}

// RestrictTo returns the embedding induced on the given vertices. Sub-vertex
// i is vs[i], and sub-edges keep the ascending order of their parent edge
// IDs. Each sub-rotation is the parent rotation with the dropped darts
// filtered out.
//
// The outer face of the restriction is the sub-face whose region contains
// the parent outer face. It is found from the incidences of vs alone, in
// O(|vs| + Σ deg) time; only a subset whose complement straddles several of
// its sub-faces falls back to a search of the complement (DESIGN.md §13).
// The subset should induce a connected subgraph; for a disconnected one the
// outer dart borders the parent outer region in one of its components.
//
// RestrictTo is safe for concurrent use on one embedding: each call draws
// its own scratch arena from a pool.
func (emb *Embedding) RestrictTo(vs []int, outerFace int) (*Restriction, error) {
	a := restrictPool.Get().(*restrictArena)
	defer restrictPool.Put(a)
	res, _, err := emb.restrictWith(a, vs, outerFace)
	return res, err
}

// restrictWith is RestrictTo on the caller's arena; it also reports which
// rule found the outer sub-face.
func (emb *Embedding) restrictWith(a *restrictArena, vs []int, outerFace int) (*Restriction, outerCase, error) {
	g := emb.g
	ep := a.begin(g.N(), g.M())
	orig := make([]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= g.N() {
			return nil, outerNone, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if a.stamp[v] == ep {
			return nil, outerNone, fmt.Errorf("graph: duplicate vertex %d", v)
		}
		a.stamp[v] = ep
		//planarvet:narrowok i indexes vs, whose entries are distinct vertices, so i < n ≤ MaxInt32
		a.subOf[v] = int32(i)
		orig[i] = v
	}
	// Kept edges, each taken once from its larger endpoint and sorted, so
	// sub-edge IDs follow parent edge IDs as in graph.InducedSubgraph.
	a.cand = a.cand[:0]
	for _, v := range vs {
		for _, id := range g.IncidentEdges(v) {
			if w := g.Other(int(id), v); w < v && a.stamp[w] == ep {
				a.cand = append(a.cand, id)
			}
		}
	}
	slices.Sort(a.cand)
	sub := graph.NewWithCapacity(len(vs), len(a.cand))
	for sid, id := range a.cand {
		u, w := g.EndpointsOf(int(id))
		sub.MustAddEdge(int(a.subOf[u]), int(a.subOf[w]))
		//planarvet:narrowok sid indexes the kept edges, fewer than the parent's m, which AddEdge bounds to MaxInt32
		a.subEdge[id] = int32(sid)
	}
	// Flat sub-rotations: each parent rotation from its first dart, kept
	// darts only.
	a.off, a.darts = a.off[:0], a.darts[:0]
	for _, v := range vs {
		//planarvet:narrowok darts holds at most 2m sub-darts, and AddEdge bounds 2m to MaxInt32
		a.off = append(a.off, int32(len(a.darts)))
		d0 := emb.first[v]
		if d0 < 0 {
			continue
		}
		for d := d0; ; {
			if a.stamp[emb.headD[d]] == ep {
				a.darts = append(a.darts, a.subDart(emb, d))
			}
			if d = emb.next[d]; d == d0 {
				break
			}
		}
	}
	//planarvet:narrowok darts holds at most 2m sub-darts, and AddEdge bounds 2m to MaxInt32
	a.off = append(a.off, int32(len(a.darts)))
	semb, err := NewEmbeddingFlat(sub, a.off, a.darts)
	if err != nil {
		return nil, outerNone, err
	}
	res := &Restriction{G: sub, Emb: semb, Orig: orig, OuterDart: -1}
	if sub.M() == 0 {
		return res, outerNone, nil
	}
	if outerFace < 0 || outerFace >= emb.TraceFaces().Count() {
		return nil, outerNone, fmt.Errorf("planar: outer face %d out of range", outerFace)
	}
	sfs := semb.TraceFaces()
	f, how := emb.outerSubFace(a, vs, outerFace, sfs)
	if f < 0 {
		return nil, outerNone, fmt.Errorf("planar: no sub-dart borders the outer region")
	}
	res.OuterDart = a.outerDartOn(g, sub, sfs, f)
	return res, how, nil
}

// subDart maps a kept parent dart d (both ends in vs) to its sub-dart.
func (a *restrictArena) subDart(emb *Embedding, d int32) int32 {
	sd := 2 * a.subEdge[d>>1]
	// Sub-edges are normalized, so the dart out of the smaller sub-vertex
	// is the even one.
	if a.subOf[emb.headD[d^1]] > a.subOf[emb.headD[d]] {
		sd++
	}
	return sd
}

// outerSubFace returns the sub-face holding the parent outer face, and the
// rule that found it, or -1 if none applies. A parent dart d with tail in
// vs has its face in the corner just counterclockwise of d, which the
// restriction merges into the sub-face of the first kept dart clockwise
// from d (d itself if kept).
func (emb *Embedding) outerSubFace(a *restrictArena, vs []int, outerFace int, sfs *Faces) (int32, outerCase) {
	ep := a.epoch
	fs := emb.TraceFaces()
	boundary, mixed := int32(-1), false
	for _, v := range vs {
		k0 := a.keptFrom(emb, emb.first[v])
		if k0 < 0 {
			continue
		}
		// Walk counterclockwise from a kept dart, so the first kept dart
		// clockwise from d is the last kept dart seen.
		var face int32
		for d := k0; ; {
			kept := a.stamp[emb.headD[d]] == ep
			if kept {
				face = sfs.FaceOf[a.subDart(emb, d)]
			}
			if int(fs.FaceOf[d]) == outerFace {
				return face, outerTouch // (a)
			}
			if !kept {
				if boundary < 0 {
					boundary = face
				} else if face != boundary {
					mixed = true
				}
			}
			if d = emb.prev[d]; d == k0 {
				break
			}
		}
	}
	// (b) Every component of G − vs meets vs through a boundary dart and
	// lies in that dart's sub-face; if they all share one sub-face, so does
	// the parent outer face, whose boundary avoids vs.
	if boundary >= 0 && !mixed {
		return boundary, outerBoundary
	}
	return emb.searchOuterSubFace(a, outerFace, sfs), outerSearch
}

// keptFrom returns the first kept dart clockwise from d (inclusive), or -1
// if d's tail keeps none (or d is -1).
func (a *restrictArena) keptFrom(emb *Embedding, d int32) int32 {
	if d < 0 {
		return -1
	}
	for x := d; ; {
		if a.stamp[emb.headD[x]] == a.epoch {
			return x
		}
		if x = emb.next[x]; x == d {
			return -1
		}
	}
}

// searchOuterSubFace is case (c): a breadth-first search through G − vs
// from a vertex of the parent outer face, stopped at the first dart into vs
// whose tail keeps a dart. That dart's sub-face holds the component of
// G − vs that contains the outer face. Only subsets whose complement
// straddles several sub-faces reach it; its cost is bounded by that
// component.
func (emb *Embedding) searchOuterSubFace(a *restrictArena, outerFace int, sfs *Faces) int32 {
	ep := a.epoch
	a.queue = a.queue[:0]
	for _, d := range emb.TraceFaces().Cycle(outerFace) {
		if t := emb.headD[d^1]; a.stamp[t] != ep {
			a.seen[t] = ep
			a.queue = append(a.queue, t)
			break
		}
	}
	for qi := 0; qi < len(a.queue); qi++ {
		d0 := emb.first[a.queue[qi]]
		for d := d0; d >= 0; {
			y := emb.headD[d]
			if a.stamp[y] == ep {
				if k := a.keptFrom(emb, d^1); k >= 0 {
					return sfs.FaceOf[a.subDart(emb, k)]
				}
			} else if a.seen[y] != ep {
				a.seen[y] = ep
				a.queue = append(a.queue, y)
			}
			if d = emb.next[d]; d == d0 {
				break
			}
		}
	}
	return -1
}

// outerDartOn returns the dart of sub-face f that a scan of kept parent
// edges in ID order, each from its lower endpoint first, meets first: the
// face's dart of least sub-edge, preferring the one out of the parent
// edge's lower endpoint.
func (a *restrictArena) outerDartOn(g, sub *graph.Graph, sfs *Faces, f int32) int {
	sid := int32(math.MaxInt32)
	for _, sd := range sfs.Cycle(int(f)) {
		sid = min(sid, sd>>1)
	}
	pu, _ := g.EndpointsOf(int(a.cand[sid]))
	su, _ := sub.EndpointsOf(int(sid))
	d := 2 * int(sid)
	if a.subOf[pu] != su {
		d++
	}
	if sfs.FaceOf[d] != f {
		d ^= 1
	}
	return d
}
