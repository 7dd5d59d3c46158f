package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/serve"
)

// serveScale sizes the serve-mixed workload.
type serveScale struct {
	nMain, nHalf int
	// warm is the number of graphs in the reader's warm set.
	warm int
	// setups is how many times the set-up (warm-instance generation,
	// server start, warm-set builds) runs; setup_s is their median.
	setups int
	// minCycles is the writer's cycle count run even past the deadline, as
	// for the build workloads.
	minCycles int
	// replays is the number of the writer's instances the traced run
	// replays locally for the build layers.
	replays int
}

var serveMixed = serveScale{nMain: 2048, nHalf: 1024, warm: 4, setups: 3, minCycles: 16, replays: 3}

// pollInterval is the client's wait between job-status polls; it bounds
// the resolution of the POST-to-done latency.
const pollInterval = 2 * time.Millisecond

// rig is a running planard server behind a loopback HTTP server.
type rig struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func startRig() *rig {
	srv := serve.New(serve.Options{})
	hs := httptest.NewServer(srv)
	return &rig{srv: srv, hs: hs, client: hs.Client()}
}

func (r *rig) close() error {
	r.hs.Close()
	return r.srv.Shutdown(context.Background())
}

// jobBody encodes a POST /v1/jobs body submitting w inline.
func jobBody(w *gen.Wire) ([]byte, error) {
	raw, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.JobRequest{Graph: raw})
}

// do sends one request and returns the status code and the body.
func (r *rig) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts a job and returns its accepted status.
func (r *rig) submit(body []byte) (serve.JobStatus, error) {
	var st serve.JobStatus
	code, data, err := r.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, fmt.Errorf("POST /v1/jobs: status %d: %s", code, data)
	}
	return st, json.Unmarshal(data, &st)
}

// wait polls a job until it leaves the queued and running states.
func (r *rig) wait(id string) (serve.JobStatus, error) {
	for {
		var st serve.JobStatus
		code, data, err := r.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("GET job %s: status %d", id, code)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, err
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			return st, nil
		}
		time.Sleep(pollInterval)
	}
}

// checkJob checks a finished job: done, with the expected cache status,
// keyed by the instance's content hash, with all three verdicts OK.
func (r *rig) checkJob(st serve.JobStatus, in *gen.Instance, cached bool) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s: state %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Cached != cached {
		return fmt.Errorf("job %s: cached %v, want %v", st.ID, st.Cached, cached)
	}
	if want := gen.ContentHash(in); st.Hash != want {
		return fmt.Errorf("job %s: hash %s, want %s", st.ID, st.Hash, want)
	}
	code, data, err := r.do(http.MethodGet, "/v1/graphs/"+st.Hash, nil)
	if err != nil {
		return err
	}
	var sum serve.GraphSummary
	if code != http.StatusOK {
		return fmt.Errorf("graph %s: status %d", st.Hash, code)
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return err
	}
	if len(sum.Verdicts) != 3 {
		return fmt.Errorf("graph %s: %d verdicts, want 3", st.Hash, len(sum.Verdicts))
	}
	for _, v := range sum.Verdicts {
		if !v.OK {
			return fmt.Errorf("graph %s: %s verdict rejected", st.Hash, v.Scheme)
		}
	}
	return nil
}

// warmGraph is one graph of the reader's warm set with the DFS tree the
// benchmark computes for it locally, which the reader's answers must match.
type warmGraph struct {
	in     *gen.Instance
	hash   string
	parent []int
	depth  []int
}

// setUp generates the warm set, starts a server and builds the warm set
// on it, returning the running rig.
func setUp(sc serveScale, seed int64) (*rig, []*warmGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	warm := make([]*warmGraph, sc.warm)
	bodies := make([][]byte, sc.warm)
	for i := range warm {
		in, err := gen.StackedTriangulation(sc.nMain, rng.Int63())
		if err != nil {
			return nil, nil, err
		}
		if bodies[i], err = jobBody(gen.WireOf(in)); err != nil {
			return nil, nil, err
		}
		warm[i] = &warmGraph{in: in, hash: gen.ContentHash(in)}
	}
	r := startRig()
	ids := make([]string, len(warm))
	for i := range warm {
		st, err := r.submit(bodies[i])
		if err != nil {
			return nil, nil, fmt.Errorf("warm set: %w", err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := r.wait(id)
		if err == nil {
			err = r.checkJob(st, warm[i].in, false)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("warm set: %w", err)
		}
	}
	return r, warm, nil
}

// reference computes the warm set's DFS trees locally, rooted where the
// server roots them (the first vertex of the outer face).
func reference(warm []*warmGraph) error {
	for _, w := range warm {
		in := w.in
		root := in.Emb.TraceFaces().FaceVertices(in.OuterFace())[0]
		pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
		if err != nil {
			return err
		}
		w.parent = pt.Parent
		w.depth = naiveDepths(pt.Parent)
	}
	return nil
}

// writerCycle is one writer cycle's untimed preparation.
type writerCycle struct {
	main, half         *gen.Instance
	mainBody, halfBody []byte
	variants           [numCorruptions][]byte
}

func prepareWriter(sc serveScale, rng *rand.Rand) (*writerCycle, error) {
	c := &writerCycle{}
	var err error
	if c.main, err = gen.StackedTriangulation(sc.nMain, rng.Int63()); err != nil {
		return nil, err
	}
	if c.half, err = gen.StackedTriangulation(sc.nHalf, rng.Int63()); err != nil {
		return nil, err
	}
	if c.mainBody, err = jobBody(gen.WireOf(c.main)); err != nil {
		return nil, err
	}
	if c.halfBody, err = jobBody(gen.WireOf(c.half)); err != nil {
		return nil, err
	}
	for k := corruption(0); k < numCorruptions; k++ {
		w, err := corruptWire(c.main, k, rng)
		if err != nil {
			return nil, err
		}
		if c.variants[k], err = jobBody(w); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// writerStats are the writer's measurements.
type writerStats struct {
	mainS, halfS, rounds          []float64
	rejectMS                      [numCorruptions][]float64
	submitMS, queueUS, buildS, gc []float64
	cycles                        int
	replay                        []*gen.Instance
}

// runWriter runs the writer's closed loop until the deadline (and at least
// sc.minCycles cycles): a cold job, its three corrupted variants, the
// cached resubmission and a cold half-size job per cycle.
func runWriter(r *rig, sc serveScale, rng *rand.Rand, deadline int64, keep int, res *result) (*writerStats, error) {
	ws := &writerStats{}
	rc := newRuntimeCounters()
	for i := 0; another(i, sc.minCycles, deadline); i++ {
		c, err := prepareWriter(sc, rng)
		if err != nil {
			return nil, fmt.Errorf("writer cycle %d set-up: %w", i, err)
		}
		if i < keep {
			ws.replay = append(ws.replay, c.main)
		}
		ws.cycles++

		_, g0 := rc.read()
		t0 := now()
		st, err := r.submit(c.mainBody)
		t1 := now()
		if err == nil {
			st, err = r.wait(st.ID)
		}
		t2 := now()
		_, g1 := rc.read()
		if err == nil {
			err = r.checkJob(st, c.main, false)
		}
		res.check(err)
		if err == nil {
			ws.mainS = append(ws.mainS, seconds(t2-t0))
			ws.submitMS = append(ws.submitMS, float64(t1-t0)/1e6)
			ws.queueUS = append(ws.queueUS, float64(st.QueueMicros))
			ws.buildS = append(ws.buildS, float64(st.BuildMicros)/1e6)
			ws.gc = append(ws.gc, float64(g1-g0))
			if i < sc.minCycles {
				ws.rounds = append(ws.rounds, float64(st.Rounds))
			}
		}

		for k, body := range c.variants {
			t0 := now()
			code, data, err := r.do(http.MethodPost, "/v1/jobs", body)
			t1 := now()
			if err == nil && code != http.StatusUnprocessableEntity {
				err = fmt.Errorf("%s variant: status %d, want 422: %s", corruption(k), code, data)
			}
			res.check(err)
			if err == nil {
				ws.rejectMS[k] = append(ws.rejectMS[k], float64(t1-t0)/1e6)
			}
		}

		st, err = r.submit(c.mainBody)
		if err == nil {
			st, err = r.wait(st.ID)
		}
		if err == nil {
			err = r.checkJob(st, c.main, true)
		}
		res.check(err)

		t0 = now()
		st, err = r.submit(c.halfBody)
		if err == nil {
			st, err = r.wait(st.ID)
		}
		t1 = now()
		if err == nil {
			err = r.checkJob(st, c.half, false)
		}
		res.check(err)
		if err == nil {
			ws.halfS = append(ws.halfS, seconds(t1-t0))
		}
	}
	return ws, nil
}

// readerStats are the reader's measurements and checks.
type readerStats struct {
	latUS             []float64
	wallNS            int64
	attempted, failed int
	failures          []string
}

var queryKinds = [...]string{"lca", "order", "separator", "cert"}

// runReader issues cached queries at random warm-set vertices until stop
// is closed, checking every answer after timing it.
func runReader(r *rig, warm []*warmGraph, rng *rand.Rand, stop <-chan struct{}) *readerStats {
	rs := &readerStats{}
	start := now()
	for {
		select {
		case <-stop:
			rs.wallNS = now() - start
			return rs
		default:
		}
		w := warm[rng.Intn(len(warm))]
		kind := queryKinds[rng.Intn(len(queryKinds))]
		n := w.in.G.N()
		u, v := rng.Intn(n), rng.Intn(n)
		path := fmt.Sprintf("/v1/graphs/%s/query/%s?u=%d&v=%d", w.hash, kind, u, v)
		t0 := now()
		code, data, err := r.do(http.MethodGet, path, nil)
		t1 := now()
		if err == nil {
			err = checkAnswer(w, kind, u, v, code, data)
		}
		rs.attempted++
		if err != nil {
			rs.failed++
			if len(rs.failures) < 8 {
				rs.failures = append(rs.failures, err.Error())
			}
			continue
		}
		rs.latUS = append(rs.latUS, float64(t1-t0)/1e3)
	}
}

// checkAnswer checks one query answer against the local reference tree.
func checkAnswer(w *warmGraph, kind string, u, v, code int, data []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s query: status %d: %s", kind, code, data)
	}
	switch kind {
	case "lca":
		var a struct{ LCA, Depth int }
		if err := json.Unmarshal(data, &a); err != nil {
			return err
		}
		if want := naiveLCA(w.parent, w.depth, u, v); a.LCA != want || a.Depth != w.depth[want] {
			return fmt.Errorf("lca(%d,%d) = %d at depth %d, want %d at depth %d", u, v, a.LCA, a.Depth, want, w.depth[want])
		}
	case "order":
		var a struct{ Parent, Depth int }
		if err := json.Unmarshal(data, &a); err != nil {
			return err
		}
		if a.Parent != w.parent[v] || a.Depth != w.depth[v] {
			return fmt.Errorf("order(%d): parent %d depth %d, want %d and %d", v, a.Parent, a.Depth, w.parent[v], w.depth[v])
		}
	case "separator":
		var a struct{ Side, SepLen int }
		if err := json.Unmarshal(data, &a); err != nil {
			return err
		}
		if a.Side < 0 || a.Side > 2 || a.SepLen < 1 {
			return fmt.Errorf("separator(%d): side %d, length %d", v, a.Side, a.SepLen)
		}
	case "cert":
		var vs []serve.VerdictSummary
		if err := json.Unmarshal(data, &vs); err != nil {
			return err
		}
		if len(vs) != 3 {
			return fmt.Errorf("cert: %d verdicts, want 3", len(vs))
		}
		for _, x := range vs {
			if !x.OK {
				return fmt.Errorf("cert: %s verdict rejected", x.Scheme)
			}
		}
	}
	return nil
}

// probeServe submits in to a fresh server twice, cold and then cached, and
// sets the serve-layer metrics from that one job: the serve layers' numbers
// for a build workload's instances, which the timed cycles never send
// through planard.
func probeServe(in *gen.Instance, res *result) error {
	r := startRig()
	defer r.close()
	body, err := jobBody(gen.WireOf(in))
	if err != nil {
		return err
	}
	t0 := now()
	st, err := r.submit(body)
	t1 := now()
	if err == nil {
		st, err = r.wait(st.ID)
	}
	if err == nil {
		err = r.checkJob(st, in, false)
	}
	res.check(err)
	if err != nil {
		return nil
	}
	res.set("serve.submit_ms", float64(t1-t0)/1e6, 1)
	res.set("serve.queue_wait_us", float64(st.QueueMicros), 1)
	res.set("serve.build_s", float64(st.BuildMicros)/1e6, 1)
	st, err = r.submit(body)
	if err == nil {
		st, err = r.wait(st.ID)
	}
	if err == nil {
		err = r.checkJob(st, in, true)
	}
	res.check(err)
	m := r.srv.Metrics()
	hits, misses := m.Counter("serve.cache.hits"), m.Counter("serve.cache.misses")
	res.set("serve.cache.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	res.set("serve.query_miss", float64(m.Counter("serve.query.miss")), 0)
	return nil
}

// runServe runs serve-mixed: a writer and a reader, two closed-loop
// clients, against one server with default options.
func runServe(o options, sc serveScale) (*result, error) {
	res := newResult()
	res.params["n_main"] = sc.nMain
	res.params["n_half"] = sc.nHalf
	res.params["warm"] = sc.warm
	res.params["setups"] = sc.setups
	res.params["min_cycles"] = sc.minCycles

	var setup []float64
	var r *rig
	var warm []*warmGraph
	for i := 0; i < sc.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		r, warm, err = setUp(sc, o.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, seconds(now()-t0))
	}
	defer r.close()
	if err := reference(warm); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed ^ 0x77))
	qrng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	keep := 0
	if o.trace {
		keep = sc.replays
	}
	m := r.srv.Metrics()
	hits0, misses0 := m.Counter("serve.cache.hits"), m.Counter("serve.cache.misses")
	rc := newRuntimeCounters()
	a0, _ := rc.read()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rs *readerStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = runReader(r, warm, qrng, stop)
	}()
	ws, werr := runWriter(r, sc, rng, now()+int64(o.seconds*1e9), keep, res)
	close(stop)
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	a1, _ := rc.read()
	res.attempted += rs.attempted
	res.failed += rs.failed
	res.failures = append(res.failures, rs.failures...)

	if !o.trace {
		res.set("setup_s", median(setup), len(setup))
		res.set("build_p50_s", median(ws.mainS), len(ws.mainS))
		res.set("build_exponent", exponent(median(ws.mainS), median(ws.halfS), sc.nMain, sc.nHalf), len(ws.mainS)+len(ws.halfS))
		res.set("build_alloc_mb", float64(a1-a0)/1e6/float64(ws.cycles), ws.cycles)
		res.set("charged_rounds", mean(ws.rounds), len(ws.rounds))
		res.setRejects(ws.rejectMS)
		n := len(rs.latUS)
		res.extra = append(res.extra,
			extraMetric{metricDef{name: "query_p50_us", unit: "us", better: "lower"}, measured{median(rs.latUS), n}},
			extraMetric{metricDef{name: "query_p99_us", unit: "us", better: "lower"}, measured{quantile(rs.latUS, 0.99), n}},
			extraMetric{metricDef{name: "query_per_s", unit: "1/s", better: "higher"}, measured{float64(n) / seconds(rs.wallNS), n}},
		)
		return res, nil
	}

	// Traced run: the serve layers come from the client's timings and the
	// server's own counters; the build layers from replaying the writer's
	// first instances locally, after the timed phase.
	rec := newSpanRecorder()
	lt := newLayerSamples()
	lrc := newRuntimeCounters()
	for _, in := range ws.replay {
		root := in.Emb.TraceFaces().FaceVertices(in.OuterFace())[0]
		b, err := timedBuild(lrc, in, root)
		if err == nil {
			err = checkCertified(in, root, b)
		}
		res.check(err)
		if err == nil {
			res.check(lt.replay(rec, in, root, b, true))
		}
	}
	lt.report(res)
	hits, misses := m.Counter("serve.cache.hits")-hits0, m.Counter("serve.cache.misses")-misses0
	res.set("runtime.gc_cycles", median(ws.gc), len(ws.gc))
	res.set("serve.submit_ms", median(ws.submitMS), len(ws.submitMS))
	res.set("serve.queue_wait_us", median(ws.queueUS), len(ws.queueUS))
	res.set("serve.build_s", median(ws.buildS), len(ws.buildS))
	res.set("serve.cache.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	res.set("serve.query_miss", float64(m.Counter("serve.query.miss")), len(rs.latUS))
	res.spans = rec.spans
	return res, nil
}

// naiveDepths computes every vertex's depth by walking parent pointers.
func naiveDepths(parent []int) []int {
	depth := make([]int, len(parent))
	for v := range depth {
		depth[v] = -1
	}
	var path []int
	for v := range parent {
		u := v
		for u >= 0 && depth[u] < 0 {
			path = append(path, u)
			u = parent[u]
		}
		d := -1
		if u >= 0 {
			d = depth[u]
		}
		for j := len(path) - 1; j >= 0; j-- {
			d++
			depth[path[j]] = d
		}
		path = path[:0]
	}
	return depth
}

// naiveLCA walks u and v up to their lowest common ancestor.
func naiveLCA(parent, depth []int, u, v int) int {
	for depth[u] > depth[v] {
		u = parent[u]
	}
	for depth[v] > depth[u] {
		v = parent[v]
	}
	for u != v {
		u, v = parent[u], parent[v]
	}
	return u
}
