package main

import (
	"fmt"
	"runtime"
	"slices"

	"planardfs/internal/gen"
)

// spanLayers are the replay's span names whose wall time per build is
// reported as <name>.wall_s; allocLayers also report <name>.alloc_mb.
var (
	spanLayers  = []string{"planar.restrict", "weights.config", "dfs.join", "separator.find", "guard", "cert", "spanning.bfs", "dfs.components", "dfs.verify"}
	allocLayers = spanLayers[:5]
)

// countMetrics are the per-build counts, exact for a given instance.
var countMetrics = []string{
	"planar.restrict.calls", "separator.find.calls", "dfs.join.subphases", "dfs.phases",
	"guard.rounds", "guard.messages", "cert.rounds", "chaos.attempts",
}

// layerSamples collects the per-build layer numbers of a traced run.
type layerSamples struct {
	wall   map[string][]float64 // seconds per build, by span name
	allocs map[string][]float64 // MB per build, by span name
	// counts are taken over the seed-determined first cycles only.
	counts  map[string][]float64
	selfS   []float64
	gc      []float64
	facadeS []float64
	tracedS []float64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{wall: map[string][]float64{}, allocs: map[string][]float64{}, counts: map[string][]float64{}}
}

// replay runs one traced replay of the build b the facade produced for
// (in, root), checks it against b and records its layer numbers; the
// counts only when countIt is set.
func (l *layerSamples) replay(rec *spanRecorder, in *gen.Instance, root int, b *guardedBuild, countIt bool) error {
	runtime.GC()
	build := rec.build
	t0 := now()
	r, err := replayBuild(rec, in, root)
	traced := now() - t0
	rec.build++
	if err != nil {
		rec.abort()
		return fmt.Errorf("%s: replay: %w", in.Name, err)
	}
	if !slices.Equal(r.parent, b.parent) {
		return fmt.Errorf("%s: replayed parent array differs from BuildDFSTreeGuarded's", in.Name)
	}
	if want := chargedRounds(b.report); r.chargedRounds != want {
		return fmt.Errorf("%s: replayed charged rounds %d, facade %d", in.Name, r.chargedRounds, want)
	}
	t := rec.totals(build)
	for _, name := range spanLayers {
		l.wall[name] = append(l.wall[name], seconds(t.wallNS[name]))
		l.allocs[name] = append(l.allocs[name], float64(t.alloc[name])/1e6)
	}
	l.selfS = append(l.selfS, seconds(t.selfNS["dfs.build"]))
	l.gc = append(l.gc, float64(b.gcCycles))
	l.facadeS = append(l.facadeS, seconds(b.wallNS))
	l.tracedS = append(l.tracedS, seconds(traced))
	if countIt {
		counts := map[string]int{
			"planar.restrict.calls": t.calls["planar.restrict"],
			"separator.find.calls":  t.calls["separator.find"],
			"dfs.join.subphases":    r.joinSubPhases,
			"dfs.phases":            r.phases,
			"guard.rounds":          r.guardRounds,
			"guard.messages":        int(r.guardMessages),
			"cert.rounds":           r.certRounds,
			"chaos.attempts":        len(b.report.Attempts),
		}
		for _, name := range countMetrics {
			l.counts[name] = append(l.counts[name], float64(counts[name]))
		}
	}
	return nil
}

// report sets the per-layer metrics from the collected samples: medians
// per build.
func (l *layerSamples) report(res *result) {
	for _, name := range spanLayers {
		res.set(name+".wall_s", median(l.wall[name]), len(l.wall[name]))
	}
	for _, name := range allocLayers {
		res.set(name+".alloc_mb", median(l.allocs[name]), len(l.allocs[name]))
	}
	for _, name := range countMetrics {
		res.set(name, median(l.counts[name]), len(l.counts[name]))
	}
	res.set("dfs.build.self_s", median(l.selfS), len(l.selfS))
	res.set("runtime.gc_cycles", median(l.gc), len(l.gc))
	res.set("trace.overhead_ratio", median(l.tracedS)/median(l.facadeS)-1, len(l.tracedS))
}
