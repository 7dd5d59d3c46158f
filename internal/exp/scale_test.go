package exp

import (
	"context"
	"os"
	"testing"
	"time"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// runTheorem2Pipeline drives the full Theorem 2 stack end to end on one
// generated instance: the shared pipeline (BFS spanning tree, then the
// Theorem 2 DFS tree under the supervised recovery runtime), the spanning
// tree's certificate, Theorem 1 cycle separator, and the separator's
// proof-labeling certificate. It is the acceptance path for
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

	// Stages 1–2: the shared Theorem 2 pipeline — one BFS spanning tree,
	// then the DFS tree under the supervised recovery runtime (fault-free
	// here, so one certified attempt).
	run, err := pipeline.Run(context.Background(), inst, pipeline.Options{Root: 0})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if run.Report.Outcome != chaos.OutcomeCertified {
		t.Fatalf("supervised dfs ended %v, want certified", run.Report.Outcome)
	}
	tree := run.BFS
	lap("bfs+dfs")

	// The pipeline's spanning tree, certified by the proof-labeling scheme.
	labels := cert.ProveSpanningTree(tree)
	verdict, err := cert.VerifySpanningTree(g, labels, cert.Options{})
	if err != nil {
		t.Fatalf("spanning verify: %v", err)
	}
	if !verdict.OK {
		t.Fatalf("spanning tree rejected by %d verifiers", len(verdict.Rejectors))
	}
	lap("spanning")

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
