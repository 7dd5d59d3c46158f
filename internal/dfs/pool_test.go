package dfs

import (
	"math"
	"slices"
	"sync"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/separator"
)

// joinCase is one JOIN-PROBLEM of the first phase of a build: the largest
// component of G minus the root, and its separator.
type joinCase struct {
	in   *gen.Instance
	root int
	comp []int
	sep  []int
}

func firstJoinCase(t *testing.T, family string, n int) joinCase {
	t.Helper()
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := in.OuterRoot()
	var comp []int
	for _, c := range remainingComponents(in.G, NewPartialTree(in.G.N(), root)) {
		if len(c) > len(comp) {
			comp = c
		}
	}
	sep, err := separator.ForSubset(in.Emb, in.OuterFace(), comp)
	if err != nil {
		t.Fatal(err)
	}
	return joinCase{in: in, root: root, comp: comp, sep: sep.Path}
}

// run joins the case on sc into a fresh partial tree.
func (jc joinCase) run(t *testing.T, sc *joinScratch) ([]int, *JoinStats) {
	t.Helper()
	pt := NewPartialTree(jc.in.G.N(), jc.root)
	st, err := sc.join(jc.in.G, pt, jc.comp, jc.sep, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pt.Parent, st
}

func sameJoin(t *testing.T, what string, gotP, wantP []int, got, want *JoinStats) {
	t.Helper()
	if !slices.Equal(gotP, wantP) || got.SubPhases != want.SubPhases || !slices.Equal(got.Remaining, want.Remaining) {
		t.Fatalf("%s: join differs from a fresh scratch (sub-phases %d, want %d)", what, got.SubPhases, want.SubPhases)
	}
}

// TestJoinErrorThenValid: a join that fails leaves the scratch clean, and
// the next join on it gives the fresh result.
func TestJoinErrorThenValid(t *testing.T) {
	jc := firstJoinCase(t, "grid", 400)
	wantP, want := jc.run(t, newJoinScratch(jc.in.G.N()))
	sc := newJoinScratch(jc.in.G.N())
	g := jc.in.G
	bad := []struct {
		name      string
		comp, sep []int
	}{
		{"component holds a tree vertex", append(slices.Clone(jc.comp), jc.root), jc.sep},
		{"separator outside the component", jc.comp, append(slices.Clone(jc.sep), jc.root)},
	}
	for _, b := range bad {
		if _, err := sc.join(g, NewPartialTree(g.N(), jc.root), b.comp, b.sep, nil); err == nil {
			t.Fatalf("%s: accepted", b.name)
		}
		for v := range sc.inComp {
			if sc.inComp[v] || sc.missing[v] {
				t.Fatalf("%s: vertex %d left marked", b.name, v)
			}
		}
		gotP, got := jc.run(t, sc)
		sameJoin(t, "after "+b.name, gotP, wantP, got, want)
	}
}

// TestJoinEpochWrap: a scratch whose epoch overflows mid-join clears its
// stamps and restarts at 1, so stamps left from an old epoch never match.
func TestJoinEpochWrap(t *testing.T) {
	jc := firstJoinCase(t, "stacked", 300)
	wantP, want := jc.run(t, newJoinScratch(jc.in.G.N()))
	if want.SubPhases < 2 {
		t.Fatalf("case too easy: %d sub-phases", want.SubPhases)
	}
	sc := newJoinScratch(jc.in.G.N())
	for _, ep := range [][]int32{sc.seenEp, sc.visEp, sc.setEp} {
		for v := range ep {
			ep[v] = 1
		}
	}
	sc.epoch = math.MaxInt32 - 1
	gotP, got := jc.run(t, sc)
	sameJoin(t, "across the wrap", gotP, wantP, got, want)
	if sc.epoch <= 0 || sc.epoch > math.MaxInt32/2 {
		t.Fatalf("epoch %d did not wrap", sc.epoch)
	}
}

// TestBuildSharedInstanceConcurrent runs Build from several goroutines on
// one shared instance, as concurrent planard jobs do: the memoized face
// trace, the restriction arenas and the join scratch pool are all shared.
// Under -race it checks them; in any mode every tree must equal the
// sequential one.
func TestBuildSharedInstanceConcurrent(t *testing.T) {
	in, err := gen.ByName("stacked", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	roots := []int{0, 100, 200, 399}
	want := make([][]int, len(roots))
	for i, r := range roots {
		pt, _, err := Build(in.G, in.Emb, in.OuterDart, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt.Parent
	}
	// A fresh copy of the instance, so the goroutines also race for its
	// first face trace.
	shared, err := gen.ByName("stacked", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]int, len(roots))
	errs := make([]error, len(roots))
	for i, r := range roots {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			pt, _, err := Build(shared.G, shared.Emb, shared.OuterDart, r)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = pt.Parent
		}(i, r)
	}
	wg.Wait()
	for i, r := range roots {
		if errs[i] != nil {
			t.Fatalf("root %d: %v", r, errs[i])
		}
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("root %d: concurrent tree differs from the sequential one", r)
		}
	}
}
