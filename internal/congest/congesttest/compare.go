package congesttest

import (
	"bytes"
	"reflect"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// Run is the observable outcome of one run.
type Run struct {
	Rounds int
	Stats  congest.Stats
	Err    string // "" when the run ended cleanly
	JSONL  []byte
	Chrome []byte
	Nodes  []congest.Node
	Faults any // the setup's fault report after the run; nil without one
}

// Setup prepares a fresh network before a run — raise MaxWords, arm an
// injector — and returns a function reporting the fired faults after the
// run, or nil.
type Setup func(nw *congest.Network) func() any

// Compare runs the programs build makes twice, under Network.Run and under
// Reference, each on a fresh traced network prepared by setup (nil for
// none). It fails t unless the runs agree on rounds, Stats, error, JSONL
// and Chrome traces and fault report, and returns both so the caller can
// compare the programs' outputs.
func Compare(t testing.TB, g *graph.Graph, setup Setup, build func(*congest.Network) []congest.Node, maxRounds int) (eng, ref Run) {
	t.Helper()
	run := func(reference bool) Run {
		nw := congest.New(g)
		rec := trace.NewRecorder()
		nw.Tracer = rec
		var faults func() any
		if setup != nil {
			faults = setup(nw)
		}
		r := Run{Nodes: build(nw)}
		var err error
		if reference {
			r.Rounds, r.Stats, err = Reference(nw, r.Nodes, maxRounds)
		} else {
			r.Rounds, err = nw.Run(r.Nodes, maxRounds)
			r.Stats = nw.Stats()
		}
		if err != nil {
			r.Err = err.Error()
		}
		if faults != nil {
			r.Faults = faults()
		}
		var j, c bytes.Buffer
		if err := rec.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		r.JSONL, r.Chrome = j.Bytes(), c.Bytes()
		return r
	}
	eng, ref = run(false), run(true)
	switch {
	case eng.Rounds != ref.Rounds || eng.Err != ref.Err:
		t.Fatalf("engine ran %d rounds (err %q), reference %d (err %q)", eng.Rounds, eng.Err, ref.Rounds, ref.Err)
	case !reflect.DeepEqual(eng.Stats, ref.Stats):
		t.Fatalf("stats diverge\nengine:    %+v\nreference: %+v", eng.Stats, ref.Stats)
	case !reflect.DeepEqual(eng.Faults, ref.Faults):
		t.Fatalf("fault reports diverge\nengine:    %+v\nreference: %+v", eng.Faults, ref.Faults)
	case !bytes.Equal(eng.JSONL, ref.JSONL):
		t.Fatal("JSONL traces diverge")
	case !bytes.Equal(eng.Chrome, ref.Chrome):
		t.Fatal("Chrome traces diverge")
	}
	return eng, ref
}
