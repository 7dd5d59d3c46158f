package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/sepengine"
	"planardfs/internal/trace"
)

func outerRoot(in *gen.Instance) int {
	fs := in.Emb.TraceFaces()
	return fs.FaceVertices(in.OuterFace())[0]
}

func instance(t *testing.T, family string, n int) *gen.Instance {
	t.Helper()
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// enginesUnderPhases counts the sepengine spans nested inside a dfs.phase
// span.
func enginesUnderPhases(spans []trace.SpanEvent) int {
	count := 0
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "sepengine.") {
			continue
		}
		for p := sp.Parent; p >= 0; p = spans[p].Parent {
			if spans[p].Name == "dfs.phase" {
				count++
				break
			}
		}
	}
	return count
}

// A non-default engine reaches the per-component separators inside the
// DFS phases, and the tree it builds still verifies and certifies; the
// default engine runs Theorem 1 directly, with no engine spans at all.
func TestRunEngineReachesComponents(t *testing.T) {
	in := instance(t, "stacked", 120)
	root := outerRoot(in)
	for _, engine := range []string{"", "dual-tree-bfs", "har-peled-nayyeri"} {
		rec := trace.NewRecorder()
		res, err := Run(context.Background(), in, Options{Root: root, Engine: engine, Policy: chaos.Policy{Tracer: rec}})
		if err != nil {
			t.Fatalf("%q: %v", engine, err)
		}
		if res.Report.Outcome != chaos.OutcomeCertified {
			t.Fatalf("%q: outcome %v, want certified", engine, res.Report.Outcome)
		}
		if err := dfs.IsDFSTree(in.G, root, res.Parent); err != nil {
			t.Fatalf("%q: %v", engine, err)
		}
		got := enginesUnderPhases(rec.Spans())
		if engine == "" {
			if got != 0 {
				t.Fatalf("default engine recorded %d engine spans", got)
			}
			continue
		}
		if got == 0 {
			t.Fatalf("%q: no engine span under a dfs.phase span", engine)
		}
		if got+res.Trace.EngineFallbacks > res.Trace.SeparatorCalls {
			t.Fatalf("%q: %d engine spans and %d fallbacks exceed %d separator calls",
				engine, got, res.Trace.EngineFallbacks, res.Trace.SeparatorCalls)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	in := instance(t, "grid", 16)
	_, err := Run(context.Background(), in, Options{Root: outerRoot(in), Engine: "nosuch-engine"})
	var unknown *sepengine.UnknownEngineError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want an UnknownEngineError", err)
	}
}

// The guard runs before anything else: a rejected input builds no BFS
// tree and runs no DFS attempt.
func TestRunGuardFirst(t *testing.T) {
	in := instance(t, "grid", 16)
	w := gen.WireOf(in)
	var bad *gen.Instance
	for seed := int64(1); seed < 50 && bad == nil; seed++ {
		rot := make([][]int, len(w.Rotations))
		for v := range rot {
			rot[v] = append([]int(nil), w.Rotations[v]...)
		}
		if chaos.NewPlan(seed, chaos.Spec{Structural: 4}).SpliceFaces(1, rot) == 0 {
			continue
		}
		cw := *w
		cw.Rotations = rot
		if c, err := cw.Build(); err == nil && c.Emb.Genus() != 0 {
			bad = c
		}
	}
	if bad == nil {
		t.Fatal("no seed produced a genus-raising corruption")
	}
	rec := trace.NewRecorder()
	res, err := Run(context.Background(), bad, Options{Root: outerRoot(in), Guard: &guard.Options{Seed: 1}, Policy: chaos.Policy{Tracer: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Outcome != chaos.OutcomeRejectedInput || len(res.Report.Attempts) != 0 || res.BFS != nil {
		t.Fatalf("rejected run: outcome %v, %d attempts, BFS built %v",
			res.Report.Outcome, len(res.Report.Attempts), res.BFS != nil)
	}
	for _, sp := range rec.Spans() {
		if sp.Layer == trace.LayerDFS {
			t.Fatalf("rejected run recorded DFS span %q", sp.Name)
		}
	}
}

// cancelOnReject cancels the run the moment the supervisor counts the
// first certification rejection, i.e. between two attempts.
type cancelOnReject struct {
	*trace.Recorder
	cancel context.CancelFunc
}

func (c cancelOnReject) Count(name string, delta int64) {
	c.Recorder.Count(name, delta)
	if name == "chaos.rejections" {
		c.cancel()
	}
}

// Cancelling between attempts ends the run with an error wrapping
// context.Canceled after exactly the one rejected attempt, and leaves no
// goroutine behind.
func TestRunCancelledBetweenAttempts(t *testing.T) {
	in := instance(t, "grid", 64)
	root := outerRoot(in)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := chaos.NewPlan(3, chaos.Spec{Structural: 8})
	res, err := Run(ctx, in, Options{Root: root, Plan: plan,
		Policy: chaos.Policy{Tracer: cancelOnReject{trace.NewRecorder(), cancel}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Report.Outcome != chaos.OutcomeFailed || len(res.Report.Attempts) != 1 {
		t.Fatalf("outcome %v after %d attempts, want failed after 1",
			res.Report.Outcome, len(res.Report.Attempts))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
