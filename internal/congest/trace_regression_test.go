package congest_test

import (
	"bytes"
	"reflect"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/congest/congesttest"
	"planardfs/internal/gen"
	"planardfs/internal/trace"
)

// TestTraceIdenticalAcrossEngines locks the determinism contract of the
// tracing subsystem: the engine and the step-all reference must produce
// byte-identical trace exports and equal stats for two programs recorded
// back to back on one recorder, because the tracer is driven once per
// round from the round's totals, whatever the schedule.
func TestTraceIdenticalAcrossEngines(t *testing.T) {
	in, err := gen.ByName("grid", 81, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	run := func(reference bool) (*trace.Recorder, []congest.Stats) {
		rec := trace.NewRecorder()
		exec := func(nw *congest.Network, nodes []congest.Node, maxRounds int) congest.Stats {
			nw.Tracer = rec
			if reference {
				_, st, err := congesttest.Reference(nw, nodes, maxRounds)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			if _, err := nw.Run(nodes, maxRounds); err != nil {
				t.Fatal(err)
			}
			return nw.Stats()
		}
		nw := congest.New(g)
		awe := exec(nw, congest.NewAwerbuchNodes(nw, 0), 10*g.N())

		// A second program on the same recorder: the pipelined PA sum over
		// a BFS tree, exercising multi-word messages and the per-round
		// congestion counters.
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range value {
			value[v] = 1
		}
		nw2 := congest.New(g)
		pa := exec(nw2, congest.NewPANodes(nw2, g.BFS(0).Parent, 0, partOf, value, congest.OpSum), 100*g.N())
		return rec, []congest.Stats{awe, pa}
	}

	recEng, stEng := run(false)
	recRef, stRef := run(true)
	if !reflect.DeepEqual(stEng, stRef) {
		t.Fatalf("stats diverge:\nengine:    %+v\nreference: %+v", stEng, stRef)
	}
	export := func(rec *trace.Recorder) (jsonl, chrome []byte) {
		var bj, bc bytes.Buffer
		if err := rec.WriteJSONL(&bj); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(&bc); err != nil {
			t.Fatal(err)
		}
		return bj.Bytes(), bc.Bytes()
	}
	jEng, cEng := export(recEng)
	jRef, cRef := export(recRef)
	if !bytes.Equal(jEng, jRef) {
		t.Fatal("JSONL trace differs between the engine and the reference")
	}
	if !bytes.Equal(cEng, cRef) {
		t.Fatal("Chrome trace differs between the engine and the reference")
	}
	if len(recEng.Spans()) == 0 {
		t.Fatal("trace is empty")
	}
}
