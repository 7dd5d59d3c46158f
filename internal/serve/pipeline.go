package serve

import (
	"context"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// Decomp is the cached decomposition of one content-addressed instance:
// everything the Theorem 2 pipeline produces that repeat queries want —
// the certified BFS spanning tree, the DFS tree with its preorder
// intervals and LCA tables, the cycle separator with its greedy side
// assignment, and the certification verdicts. Once built it is immutable;
// query handlers read it without locks and without ever re-running the
// pipeline.
type Decomp struct {
	// Hash is the content address (gen.ContentHash) the store keys on.
	Hash string
	// In is the embedded instance the decomposition was computed over.
	In *gen.Instance
	// BFS is the BFS spanning tree rooted on the outer face.
	BFS *spanning.Tree
	// DFSParent is the Theorem 2 DFS parent array (-1 at the root).
	DFSParent []int
	// DFS is the tree view of DFSParent: preorder intervals, binary-lifted
	// LCA, subtree sizes.
	DFS *spanning.Tree
	// Root is the common root of both trees (on the outer face).
	Root int
	// Engine is the separator backend that produced Sep (sepengine
	// registry name).
	Engine string
	// Sep is the cycle separator of the whole instance.
	Sep *separator.Separator
	// SepSide is the greedy 2-coloring of G minus the separator:
	// 0 = separator vertex, 1 = side A, 2 = side B.
	SepSide []int
	// Verdicts are the proof-labeling certification results, in the fixed
	// order spanning, dfs, separator.
	Verdicts []VerdictSummary
	// Outcome is the supervised-recovery outcome of the DFS stage.
	Outcome string
	// Attempts is the number of supervised attempts the DFS stage took.
	Attempts int
	// Rounds is the total charged paper-model round cost of the build
	// (DFS pipeline plus certification provers and verifiers).
	Rounds int
	// BuildNanos is the wall-clock build duration (cold path).
	BuildNanos int64
	// bytes is the store accounting estimate for LRU eviction.
	bytes int64
}

// VerdictSummary is the JSON-stable projection of a cert.Verdict.
type VerdictSummary struct {
	Scheme         string `json:"scheme"`
	OK             bool   `json:"ok"`
	Rejectors      int    `json:"rejectors"`
	LabelWords     int    `json:"labelWords"`
	ProverRounds   int    `json:"proverRounds"`
	VerifierRounds int    `json:"verifierRounds"`
}

// buildDecomp runs the full decomposition pipeline over in: the shared
// Theorem 2 pipeline (BFS spanning tree, supervised DFS with Awerbuch
// degradation under faults, see internal/pipeline), then the tail only
// serve caches — the whole-instance cycle separator with side assignment
// and the three certification schemes. ctx cancellation stops supervised
// retries mid-flight and aborts between the tail's stages. The build roots
// both trees at the first vertex of the outer face, overriding opt.Root;
// opt.Engine also selects the whole-instance separator.
func buildDecomp(ctx context.Context, in *gen.Instance, opt pipeline.Options) (*Decomp, error) {
	g := in.G
	fs := in.Emb.TraceFaces()
	root := fs.FaceVertices(in.OuterFace())[0]
	opt.Root = root
	run, err := pipeline.Run(ctx, in, opt)
	if err != nil {
		return nil, fmt.Errorf("serve: DFS stage: %w", err)
	}
	rep := run.Report
	if rep.Outcome == chaos.OutcomeFailed {
		return nil, fmt.Errorf("serve: DFS stage failed after %d attempts", len(rep.Attempts))
	}
	bfs, parent := run.BFS, run.Parent
	// The build is charged at the rounds of its last Theorem 2 attempt.
	dfsRounds := 0
	for _, a := range rep.Attempts {
		if a.Stage == pipeline.StageName {
			dfsRounds = a.Rounds
		}
	}
	dfsTree, err := spanning.NewFromParents(root, parent)
	if err != nil {
		return nil, fmt.Errorf("serve: DFS tree view: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cycle separator of the whole instance plus the greedy 2-coloring,
	// produced by the requested engine (validated plus side-checked inside
	// the registry).
	cfg, err := weights.NewConfig(g, in.Emb, in.OuterDart, bfs)
	if err != nil {
		return nil, fmt.Errorf("serve: configuration: %w", err)
	}
	tracer := opt.Policy.Tracer
	cfg.Tracer = tracer
	res, err := sepengine.Find(opt.Engine, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: separator: %w", err)
	}
	sep, side := res.Sep, res.Side
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Certify everything the cache will answer queries from. The DFS tree
	// already carries the supervisor's accepted verdict, its last one.
	copt := cert.Options{Tracer: tracer}
	vSpan, err := cert.CertifySpanningTree(g, bfs, copt)
	if err != nil {
		return nil, fmt.Errorf("serve: certify spanning: %w", err)
	}
	vDFS := rep.Verdicts[len(rep.Verdicts)-1]
	vSep, err := cert.CertifySeparator(g, sep, copt)
	if err != nil {
		return nil, fmt.Errorf("serve: certify separator: %w", err)
	}

	d := &Decomp{
		Hash:      gen.ContentHash(in),
		In:        in,
		BFS:       bfs,
		DFSParent: parent,
		DFS:       dfsTree,
		Root:      root,
		Engine:    res.Engine,
		Sep:       sep,
		SepSide:   side,
		Verdicts: []VerdictSummary{
			summarize(vSpan), summarize(vDFS), summarize(vSep),
		},
		Outcome:  rep.Outcome.String(),
		Attempts: len(rep.Attempts),
		Rounds: dfsRounds +
			vSpan.ProverRounds + vSpan.VerifierRounds + vSpan.AggRounds +
			vDFS.ProverRounds + vDFS.VerifierRounds + vDFS.AggRounds +
			vSep.ProverRounds + vSep.VerifierRounds + vSep.AggRounds,
	}
	d.bytes = estimateBytes(d)
	return d, nil
}

// summarize projects a verdict into its JSON-stable summary.
func summarize(v *cert.Verdict) VerdictSummary {
	return VerdictSummary{
		Scheme:         v.Scheme,
		OK:             v.OK,
		Rejectors:      len(v.Rejectors),
		LabelWords:     v.LabelWords,
		ProverRounds:   v.ProverRounds,
		VerifierRounds: v.VerifierRounds,
	}
}

// estimateBytes sizes a decomposition for the store's byte budget: the
// dominant arrays are counted exactly (8 bytes per int), the trees'
// binary-lifting tables at their asymptotic n·log n footprint.
func estimateBytes(d *Decomp) int64 {
	n := int64(d.In.G.N())
	m := int64(d.In.G.M())
	logn := int64(1)
	for x := n; x > 1; x >>= 1 {
		logn++
	}
	perTree := 8 * (6*n + n*logn) // parent/depth/size/tin/tout/children + lifting
	return 2*perTree + 8*(2*m+2*n) + 8*int64(len(d.Sep.Path)) + 1024
}
