// Package pipeline composes the supervised Theorem 2 build once: the
// optional admission guard, one BFS spanning tree, then the separator-based
// DFS under the chaos runtime (certify, retry, degrade to Awerbuch). The
// facade, planard, dfsbench and the scale tests all run it.
package pipeline

import (
	"context"
	"errors"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// StageName names the Theorem 2 stage in recovery reports.
const StageName = "separator-pipeline"

// Options select one run of the pipeline.
type Options struct {
	// Root roots the BFS and DFS trees; it must lie on the outer face.
	Root int
	// Engine names the sepengine backend of the per-component separators;
	// empty selects the default (Theorem 1).
	Engine string
	// Guard, when set, validates the instance before anything else runs.
	Guard *guard.Options
	// Plan optionally injects structural faults into the Theorem 2 output
	// and message-level faults into the Awerbuch fallback.
	Plan *chaos.Plan
	// Policy bounds the supervisor; its Tracer also records the DFS
	// internals and the certification runs.
	Policy chaos.Policy
}

// Result is the account of one pipeline run.
type Result struct {
	// BFS is the BFS tree from Root, built on the first Theorem 2 attempt
	// and reused by every retry; nil when the guard rejected the input.
	BFS *spanning.Tree
	// Parent is the certified DFS parent array, meaningful only when
	// Report.Outcome is certified, certified-after-retry or degraded.
	Parent []int
	// Trace is the recursion trace of the last completed Theorem 2 attempt.
	Trace *dfs.Trace
	// Report is the supervisor's account of the run.
	Report *chaos.Report
}

// Run executes guard → BFS → supervised Theorem 2 DFS over in. The error
// reports infrastructure failures only (an unknown Engine, for which the
// Result is nil, a guard or certifier failure, or ctx cancellation); a
// fault-induced failure or a rejected input is an Outcome in the report.
func Run(ctx context.Context, in *gen.Instance, opt Options) (*Result, error) {
	tracer := opt.Policy.Tracer
	fallbacks := 0
	find, err := separatorFinder(opt.Engine, tracer, &fallbacks)
	if err != nil {
		return nil, err
	}
	g, root := in.G, opt.Root
	copt := cert.Options{Tracer: tracer}
	res := &Result{}
	var structural chaos.Counts
	primary := chaos.Stage[[]int]{
		Name:          StageName,
		DefaultBudget: 10*g.N() + 100,
		// A charged stage: it reports the paper-model round cost but is not
		// bound by the budget; its retries are driven by certification
		// rejections of the structurally faulted output.
		Run: func(attempt, budget int) ([]int, int, error) {
			if res.BFS == nil {
				bfs, err := spanning.BFSTree(g, root)
				if err != nil {
					return nil, 0, err
				}
				res.BFS = bfs
			}
			fallbacks = 0
			pt, tr, err := dfs.BuildWithSeparator(g, in.Emb, in.OuterDart, root, tracer, find)
			if err != nil {
				return nil, 0, err
			}
			tr.EngineFallbacks = fallbacks
			res.Trace = tr
			parent := append([]int(nil), pt.Parent...)
			structural.Structural += int64(opt.Plan.CorruptParents(attempt, root, parent))
			cm := shortcut.PaperCost{D: res.BFS.MaxDepth(), N: g.N()}
			return parent, dist.DFSBuildOps(g.N(), tr.Phases, tr.MaxJoinSubPhases).Rounds(cm, 1), nil
		},
		Certify: chaos.DFSCertifier(g, root, copt),
		Faults:  func() chaos.Counts { return structural },
	}
	fallback := chaos.AwerbuchDFS(g, root, opt.Plan, copt)
	var admit chaos.GuardFunc
	if opt.Guard != nil {
		admit = func(context.Context) (error, error) {
			v, err := guard.ValidateInstance(in, *opt.Guard)
			if err != nil {
				return nil, err
			}
			return v.Err(), nil
		}
	}
	res.Parent, res.Report, err = chaos.Run(ctx, admit, primary, &fallback, opt.Policy)
	return res, err
}

// separatorFinder resolves engine into the per-component separator. The
// default is separator.Find, making the build exactly dfs.BuildTraced; any
// other engine falls back to Theorem 1 where it finds no separator, so the
// build stays total, and counts those fallbacks in *fallbacks.
func separatorFinder(engine string, tracer trace.Tracer, fallbacks *int) (separator.FindFunc, error) {
	eng, err := sepengine.Get(engine)
	if err != nil {
		return nil, err
	}
	if eng.Name() == sepengine.DefaultEngine {
		return separator.Find, nil
	}
	return func(cfg *weights.Config) (*separator.Separator, error) {
		r, err := eng.FindCycleSeparator(cfg, sepengine.Options{Tracer: tracer})
		if err == nil {
			return r.Sep, nil
		}
		if !errors.Is(err, sepengine.ErrNoSeparator) {
			return nil, err
		}
		*fallbacks++
		return separator.Find(cfg)
	}, nil
}
