package main

import (
	"fmt"
	"slices"
	"sort"

	"planardfs"
	"planardfs/internal/cert"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/planar"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// guardOptions are the admission settings of every guarded build, the
// facade's and the replay's alike.
var guardOptions = guard.Options{Seed: 1}

// replayed is the outcome of one traced replay of the certified build.
type replayed struct {
	parent         []int
	phases         int
	separatorCalls int
	joinSubPhases  int
	guardRounds    int
	guardMessages  int64
	certRounds     int
	// chargedRounds is the paper-model cost of the certified result,
	// computed as the facade computes it.
	chargedRounds int
}

// replayBuild re-runs the certified build planardfs.BuildDFSTreeGuarded
// performs (guard, dfs.Build, the BFS depth for the cost model, DFS
// certification) from public calls, with a span around each call into a
// layer. The DFS part mirrors dfs.BuildWithSeparator's loop with the
// per-component separator.ForSubsetWith inlined, so that restrict,
// sub-face trace plus configuration, separator and join each get their
// own span. The caller compares the parent array with the facade's: any
// change to the shape of dfs.Build's loop shows up as a mismatch.
func replayBuild(rec *spanRecorder, in *gen.Instance, root int) (*replayed, error) {
	g, emb := in.G, in.Emb
	out := &replayed{}

	sp := rec.begin("guard")
	v, err := guard.ValidateInstance(in, guardOptions)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	if !v.OK {
		return nil, fmt.Errorf("guard rejected a valid instance: %v", v.Witness)
	}
	out.guardRounds, out.guardMessages = v.Rounds, v.Messages

	build := rec.begin("dfs.build")
	if !g.Connected() {
		return nil, fmt.Errorf("dfs: graph is not connected")
	}
	outerFace := emb.OuterFaceOf(in.OuterDart)
	pt := dfs.NewPartialTree(g.N(), root)
	maxJoin := 0
	for !pt.Complete() {
		out.phases++
		if out.phases > g.N()+2 {
			return nil, fmt.Errorf("dfs: did not converge")
		}
		sp = rec.begin("dfs.components")
		removed := make([]bool, g.N())
		for v := range removed {
			removed[v] = pt.Has(v)
		}
		comps := g.ComponentsAvoidingMask(removed)
		for _, c := range comps {
			sort.Ints(c)
		}
		rec.end(sp)
		for _, comp := range comps {
			path, err := replaySeparator(rec, in, outerFace, comp)
			if err != nil {
				return nil, fmt.Errorf("dfs: phase %d: %w", out.phases, err)
			}
			out.separatorCalls++
			sp = rec.begin("dfs.join")
			st, err := dfs.JoinSeparator(g, pt, comp, path)
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("dfs: phase %d join: %w", out.phases, err)
			}
			out.joinSubPhases += st.SubPhases
			maxJoin = max(maxJoin, st.SubPhases)
		}
	}
	sp = rec.begin("dfs.verify")
	err = dfs.IsDFSTree(g, root, pt.Parent)
	rec.end(sp)
	rec.end(build)
	if err != nil {
		return nil, fmt.Errorf("dfs: output invalid: %w", err)
	}
	out.parent = slices.Clone(pt.Parent)

	sp = rec.begin("spanning.bfs")
	bt, err := spanning.BFSTree(g, root)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("cert")
	cv, err := cert.CertifyDFSTree(g, root, out.parent, cert.Options{})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cert: %w", err)
	}
	if !cv.OK {
		return nil, fmt.Errorf("cert rejected the replayed tree at %d vertices", len(cv.Rejectors))
	}
	out.certRounds = cv.ProverRounds + cv.VerifierRounds + cv.AggRounds
	cm := planardfs.PaperCost{D: bt.MaxDepth(), N: g.N()}
	out.chargedRounds = planardfs.DFSRounds(g.N(), &dfs.Trace{Phases: out.phases, MaxJoinSubPhases: maxJoin}, cm) + out.certRounds
	return out, nil
}

// replaySeparator is separator.ForSubsetWith with separator.Find, one span
// per step: restrict the embedding to comp, trace the sub-faces and build
// the BFS configuration rooted on the restricted outer face, find the
// separator, map it back to original vertex IDs.
func replaySeparator(rec *spanRecorder, in *gen.Instance, outerFace int, comp []int) ([]int, error) {
	sp := rec.begin("planar.restrict")
	res, err := in.Emb.RestrictTo(comp, outerFace)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if res.G.N() == 1 {
		return []int{res.Orig[0]}, nil
	}
	sp = rec.begin("weights.config")
	cfg, err := restrictedConfig(res)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("separator.find")
	sep, err := separator.Find(cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	path := make([]int, len(sep.Path))
	for i, v := range sep.Path {
		path[i] = res.Orig[v]
	}
	return path, nil
}

// restrictedConfig builds the Theorem 1 configuration of a restricted
// component: its faces traced, a BFS tree rooted on its outer face.
func restrictedConfig(res *planar.Restriction) (*weights.Config, error) {
	if !res.G.Connected() {
		return nil, fmt.Errorf("separator: subset induces a disconnected subgraph")
	}
	fs := res.Emb.TraceFaces()
	root := fs.FaceVertices(int(fs.FaceOf[res.OuterDart]))[0]
	tree, err := spanning.BFSTree(res.G, root)
	if err != nil {
		return nil, err
	}
	return weights.NewConfig(res.G, res.Emb, res.OuterDart, tree)
}
