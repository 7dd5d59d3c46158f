package dfs

import (
	"math"
	"runtime"
	"testing"
	"time"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
)

// TestJoinDequeZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*joinScratch).run01BFS: with the
// deque buffer and the settle-order slice presized the way attachBestPath
// presizes them, the 0/1 BFS itself performs zero allocations.
func TestJoinDequeZeroAlloc(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 0)
	g.MustAddEdge(0, 3)

	x := []int{0, 1, 2, 3, 4, 5}
	sc := newJoinScratch(g.N())
	sc.missing[1] = true
	sc.missing[2] = true

	// Mirror attachBestPath's presizing exactly.
	relaxCap := 1
	for _, v := range x {
		relaxCap += g.Degree(v)
	}
	sc.deque = make([]int32, 2*relaxCap)
	sc.order = make([]int32, 0, len(x))

	allocs := testing.AllocsPerRun(100, func() {
		sc.epoch++
		ep := sc.epoch
		for _, v := range x {
			sc.seenEp[v] = ep
		}
		sc.run01BFS(g, 0, relaxCap, ep)
	})
	if allocs != 0 {
		t.Fatalf("run01BFS allocates %.1f times, want 0", allocs)
	}
	if len(sc.order) != len(x) {
		t.Fatalf("BFS settled %d vertices, want %d", len(sc.order), len(x))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBuildAllocGrowth is the growth-rate gate on Build's memory: bytes
// allocated per vertex on stacked triangulations may grow at most 1.6×
// from n = 2048 to n = 8192. Each per-component step costs O(|C|), so the
// per-vertex bytes grow only with the O(log n) phase count; a step that
// does whole-graph work again makes the ratio about 4×.
func TestBuildAllocGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under -race: sync.Pool drops items")
	}
	perVertex := func(n int) float64 {
		in, err := gen.StackedTriangulation(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := Build(in.G, in.Emb, in.OuterDart, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perVertex(2048), perVertex(8192)
	ratio := large / small
	t.Logf("Build bytes/vertex: n=2048 %.0f, n=8192 %.0f, ratio %.2f", small, large, ratio)
	if ratio > 1.6 {
		t.Fatalf("Build bytes per vertex grew %.2f× from n=2048 to n=8192, want ≤ 1.6×", ratio)
	}
}

// TestBuildTimeGrowth is the growth-rate gate on Build's wall time: the
// time per vertex on grids, min of 5 runs, may grow at most 2.5× from
// n = 1024 to n = 16 384. Grids keep a few large components through many
// phases, so a per-component step that is quadratic in the component makes
// the ratio about 6×.
func TestBuildTimeGrowth(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("wall-time gate needs an uninstrumented, full-length run")
	}
	perVertex := func(n int) float64 {
		in, err := gen.ByName("grid", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(math.MaxInt64)
		for run := 0; run < 5; run++ {
			runtime.GC()
			start := time.Now()
			if _, _, err := Build(in.G, in.Emb, in.OuterDart, 0); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return float64(best.Nanoseconds()) / float64(in.G.N())
	}
	small, large := perVertex(1024), perVertex(16384)
	ratio := large / small
	t.Logf("Build ns/vertex on grids: n=1024 %.0f, n=16384 %.0f, ratio %.2f", small, large, ratio)
	if ratio > 2.5 {
		t.Fatalf("Build time per vertex grew %.2f× from n=1024 to n=16384, want ≤ 2.5×", ratio)
	}
}
