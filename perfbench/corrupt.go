package main

import (
	"fmt"
	"math/rand"
	"slices"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
)

// corruption is one class of corrupted input, made by a chaos.Plan
// embedding primitive.
type corruption int

const (
	spliceFaces corruption = iota
	retargetDarts
	injectEdges
	numCorruptions
)

func (c corruption) String() string {
	return [...]string{"splice-faces", "retarget-darts", "inject-edges"}[c]
}

// corruptWire returns a corrupted copy of in's wire form that passes the
// server's field checks (gen.Wire.Check) and builds, but that the
// centralized check (Wire.Build + Embedding.Validate) rejects, so only the
// guard can refuse it: planard answers 422 and the facade ends in
// RecoveryRejectedInput. Candidates come from seeded chaos plans, one
// structural fault each; the first that qualifies is returned.
//
// RetargetDarts and InjectEdges alone break the rotation or edge-count
// field checks (a 400, before the guard runs), so their candidates are
// completed into a well-formed wire: a retargeted dart v→w rewires the
// edge {v,x} to {v,w} on both ends, and an injected edge replaces a
// dropped one so the edge count stays within 3n-6. The new rotation
// entries go at seeded positions.
func corruptWire(in *gen.Instance, c corruption, rng *rand.Rand) (*gen.Wire, error) {
	for try := 0; try < 64; try++ {
		w := gen.WireOf(in)
		plan := chaos.NewPlan(rng.Int63(), chaos.Spec{Structural: 1})
		var ok bool
		switch c {
		case spliceFaces:
			ok = plan.SpliceFaces(1, w.Rotations) == 1
		case retargetDarts:
			ok = rewireRetargeted(w, plan, rng)
		case injectEdges:
			ok = replaceInjected(w, plan, rng)
		}
		if !ok || w.Check() != nil {
			continue
		}
		cin, err := w.Build()
		if err != nil {
			continue
		}
		if cin.Emb.Validate() != nil {
			return w, nil
		}
	}
	return nil, fmt.Errorf("no %s corruption of %s qualified", c, in.Name)
}

// rewireRetargeted applies one RetargetDarts fault and completes it: the
// rotation entry of v that moved from x to w becomes the edge {v,w}.
func rewireRetargeted(w *gen.Wire, plan *chaos.Plan, rng *rand.Rand) bool {
	before := make([][]int, len(w.Rotations))
	for v, r := range w.Rotations {
		before[v] = slices.Clone(r)
	}
	if plan.RetargetDarts(1, w.N, w.Rotations) != 1 {
		return false
	}
	for v := range w.Rotations {
		for i, to := range w.Rotations[v] {
			from := before[v][i]
			if to == from {
				continue
			}
			if slices.Contains(before[v], to) {
				return false // a duplicate entry, not a new edge
			}
			e := edgeIndex(w, v, from)
			if e < 0 {
				return false
			}
			w.Edges[e] = [2]int{v, to}
			w.Rotations[from] = slices.DeleteFunc(w.Rotations[from], func(x int) bool { return x == v })
			w.Rotations[to] = slices.Insert(w.Rotations[to], rng.Intn(len(w.Rotations[to])+1), v)
			return true
		}
	}
	return false
}

// replaceInjected applies one InjectEdges fault and drops a seeded
// original edge in its place, inserting the new edge into both endpoint
// rotations.
func replaceInjected(w *gen.Wire, plan *chaos.Plan, rng *rand.Rand) bool {
	edges, added := plan.InjectEdges(1, w.N, w.Edges)
	if added != 1 {
		return false
	}
	ne := edges[len(edges)-1]
	e := rng.Intn(len(w.Edges))
	old := w.Edges[e]
	w.Edges[e] = ne
	for _, p := range [][2]int{old, {old[1], old[0]}} {
		w.Rotations[p[0]] = slices.DeleteFunc(w.Rotations[p[0]], func(x int) bool { return x == p[1] })
	}
	for _, p := range [][2]int{ne, {ne[1], ne[0]}} {
		w.Rotations[p[0]] = slices.Insert(w.Rotations[p[0]], rng.Intn(len(w.Rotations[p[0]])+1), p[1])
	}
	return true
}

// edgeIndex returns the index of edge {u,v} in w.Edges, or -1.
func edgeIndex(w *gen.Wire, u, v int) int {
	for i, e := range w.Edges {
		if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
			return i
		}
	}
	return -1
}
