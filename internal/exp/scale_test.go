package exp

import (
	"os"
	"testing"
	"time"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// runTheorem2Pipeline drives the full Theorem 2 stack end to end on one
// generated instance: spanning tree (certified), the Theorem 2 DFS tree
// under the supervised recovery runtime, Theorem 1 cycle separator, and the
// separator's proof-labeling certificate. It is the acceptance path for
// the flat-substrate refactor — the same sequence must complete at
// n >= 10^6 (see TestTheorem2PipelineMillion).
func runTheorem2Pipeline(t *testing.T, family string, n int) {
	t.Helper()
	start := time.Now()
	lap := func(stage string) {
		t.Logf("%-12s %8.2fs", stage, time.Since(start).Seconds())
		start = time.Now()
	}

	inst, err := gen.ByName(family, n, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	g, emb := inst.G, inst.Emb
	lap("generate")

	// Stage 1: spanning tree, certified by the proof-labeling scheme.
	tree, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatalf("spanning: %v", err)
	}
	labels := cert.ProveSpanningTree(tree)
	verdict, err := cert.VerifySpanningTree(g, labels, cert.Options{})
	if err != nil {
		t.Fatalf("spanning verify: %v", err)
	}
	if !verdict.OK {
		t.Fatalf("spanning tree rejected by %d verifiers", len(verdict.Rejectors))
	}
	lap("spanning")

	// Stage 2: the Theorem 2 DFS (dfs.Build) supervised by the
	// certify-retry runtime (fault-free here, so one certified attempt),
	// with the facade's separator-pipeline budget and paper-model round
	// cost.
	dfsStage := chaos.Stage[[]int]{
		Name:          "dfs",
		DefaultBudget: 10*g.N() + 100,
		Run: func(attempt, budget int) ([]int, int, error) {
			pt, dtr, err := dfs.Build(g, emb, inst.OuterDart, 0)
			if err != nil {
				return nil, 0, err
			}
			cm := shortcut.PaperCost{D: tree.MaxDepth(), N: g.N()}
			return pt.Parent, dist.DFSBuildOps(g.N(), dtr.Phases, dtr.MaxJoinSubPhases).Rounds(cm, 1), nil
		},
		Certify: chaos.DFSCertifier(g, 0, cert.Options{}),
	}
	_, rep, err := chaos.RunWithRecovery(dfsStage, nil, chaos.Policy{})
	if err != nil {
		t.Fatalf("supervised dfs: %v", err)
	}
	if rep.Outcome != chaos.OutcomeCertified {
		t.Fatalf("supervised dfs ended %v, want certified", rep.Outcome)
	}
	lap("dfs+recover")

	// Stage 3: Theorem 1 cycle separator on the instance.
	cfg, err := weights.NewConfig(g, emb, inst.OuterDart, tree)
	if err != nil {
		t.Fatalf("weights config: %v", err)
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		t.Fatalf("separator: %v", err)
	}
	if bal := separator.VerifyBalance(g, sep.Path); 3*bal > 2*n {
		t.Fatalf("separator unbalanced: largest side %d of %d", bal, n)
	}
	lap("separator")

	// Stage 4: certify the separator with its proof-labeling scheme.
	sepLabels, err := cert.ProveSeparator(g, sep)
	if err != nil {
		t.Fatalf("separator prove: %v", err)
	}
	sv, err := cert.VerifySeparator(g, sepLabels, cert.Options{})
	if err != nil {
		t.Fatalf("separator verify: %v", err)
	}
	if !sv.OK {
		t.Fatalf("separator rejected by %d verifiers", len(sv.Rejectors))
	}
	lap("cert")
}

// TestTheorem2PipelineMedium keeps the pipeline wired in the ordinary test
// suite at a size that finishes in seconds.
func TestTheorem2PipelineMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run skipped in -short")
	}
	runTheorem2Pipeline(t, "cylinderish", 20_000)
}

// TestTheorem2PipelineMillion is the million-node acceptance run for the
// flat substrate. It allocates several GB and runs for minutes, so it only
// runs when PLANARDFS_SCALE=1 is set (the CI bench-scaling job sets it on
// the nightly lane, not on PRs).
func TestTheorem2PipelineMillion(t *testing.T) {
	if os.Getenv("PLANARDFS_SCALE") == "" {
		t.Skip("set PLANARDFS_SCALE=1 to run the million-node pipeline")
	}
	runTheorem2Pipeline(t, "cylinderish", 1_000_000)
}
