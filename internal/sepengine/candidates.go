package sepengine

import (
	"sort"

	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// The candidate framework shared by the baseline engines: an engine ranks
// cheaply scored candidate cycles, and the framework exact-checks them in
// rank order against the real balance oracle, returning the first one
// whose removal leaves components of at most 2n/3 vertices. The exact
// check is O(n + m) per candidate, so the probe budget bounds the
// engine's local work; the ranking decides which candidates get probed.

// candidate is one potential separator: a lazily materialized vertex path
// (simple, with consecutive vertices G-adjacent) plus a ranking score
// (lower probes earlier) and the phase tag recorded on success.
type candidate struct {
	score int
	phase separator.Phase
	path  func() []int
}

// probeBudget caps exact balance checks per candidate phase. The budget is
// per phase, not global: an engine's primary tier can emit Θ(n) hopeless
// candidates (every fundamental cycle of a wheel strands the rim), and a
// global cap would starve the fallback tiers that exist precisely for
// those instances. Candidates with empty paths cost no probe.
const probeBudget = 96

// searchCandidates probes candidates in ascending score order (stable on
// generation order, so the search is deterministic) and returns the first
// balanced one as a separator. Each phase gets its own probe budget.
// ErrNoSeparator when every budget is exhausted or every candidate fails.
func searchCandidates(cfg *weights.Config, cands []candidate) (*separator.Separator, error) {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	n := cfg.G.N()
	probed := map[separator.Phase]int{}
	for _, c := range cands {
		if probed[c.phase] >= probeBudget {
			continue
		}
		path := c.path()
		if len(path) == 0 {
			continue
		}
		probed[c.phase]++
		if 3*separator.VerifyBalance(cfg.G, path) <= 2*n {
			return &separator.Separator{
				Path:  path,
				EndA:  path[0],
				EndB:  path[len(path)-1],
				Phase: c.phase,
			}, nil
		}
	}
	return nil, ErrNoSeparator
}

// treeCandidate handles configurations without fundamental edges (the
// graph is a tree): the root-to-centroid path, exactly the Theorem 1
// Phase 2 case. All cycle engines share it — a tree has no cycles, and
// the DFS recursion routinely hands engines tree components.
func treeCandidate(cfg *weights.Config) []candidate {
	return []candidate{{
		score: 0,
		phase: separator.PhaseTree,
		path: func() []int {
			c := cfg.Tree.Centroid()
			path, err := cfg.Tree.PathUp(c, cfg.Tree.Root)
			if err != nil {
				return nil
			}
			return path
		},
	}}
}

// fundamentalCandidate is the T-path of fundamental edge e, closed by the
// real edge itself.
func fundamentalCandidate(cfg *weights.Config, e int, score int, phase separator.Phase) candidate {
	return candidate{
		score: score,
		phase: phase,
		path: func() []int {
			u, v := cfg.Canonical(e)
			return cfg.Tree.TPath(u, v)
		},
	}
}

// virtualPairCandidates emits T-paths between pairs of vertices sharing a
// face, closed by a virtual edge drawn through that face — the engines'
// version of the paper's ℰ-compatible virtual closure (Lemma 8). Like the
// proof-labeling scheme, the closure itself has no local witness: the
// certified property is the balanced simple G-path. Pairs are sampled at
// stride len/2 around each face boundary (the diametral pairs a balanced
// cycle wants) plus stride len/3; duplicates and real-edge pairs cost
// nothing beyond a wasted probe.
func virtualPairCandidates(cfg *weights.Config, baseScore int) []candidate {
	fs := cfg.Faces()
	var out []candidate
	pair := func(u, w, score int) {
		if u == w {
			return
		}
		out = append(out, candidate{
			score: score,
			phase: separator.PhaseSparseVirtual,
			path:  func() []int { return cfg.Tree.TPath(u, w) },
		})
	}
	for f := 0; f < fs.Count(); f++ {
		b := fs.FaceVertices(f)
		if len(b) < 4 {
			continue // triangle pairs are real edges, already candidates
		}
		half, third := len(b)/2, len(b)/3
		// Penalize by face index after the strides so big outer faces (low
		// indices come first in trace order) probe before deep small ones.
		for i := 0; i < len(b); i += 2 {
			pair(b[i], b[(i+half)%len(b)], baseScore+f+i)
		}
		if third >= 2 {
			for i := 1; i < len(b); i += 2 {
				pair(b[i], b[(i+third)%len(b)], baseScore+fs.Count()+f+i)
			}
		}
	}
	return out
}

// absDiff returns |a - b|.
func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
