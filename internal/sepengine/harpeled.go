package sepengine

import (
	"sort"

	"planardfs/internal/dist"
	"planardfs/internal/planar"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
	"planardfs/internal/weights"
)

// harPeledEngine is the BFS-level cycle separator in the style of
// Har-Peled and Nayyeri (arXiv 1709.08122): run a BFS from an arbitrary
// face (here the outer face, every boundary vertex a source at level 0),
// pick levels whose removal balances the vertex counts below and above,
// and close each into a short cycle by walking the dual — the boundary of
// the region of faces entirely below the level is an even subgraph whose
// simple-cycle decomposition this engine extracts and probes.
//
// Levels are ranked by the imbalance |below - above| (the first balanced
// level probes first); for each probed level both region variants (faces
// strictly below, faces up to the level) contribute their boundary
// cycles. A typed ErrNoSeparator reports instances where no extracted
// cycle balances on its own (the region boundary can shatter into many
// small cycles none of which separates a third of the graph).
type harPeledEngine struct{}

func (harPeledEngine) Name() string { return "har-peled-nayyeri" }

// hpnMaxLevels caps how many candidate levels get a region extraction
// (each extraction is an O(n + m) sweep).
const hpnMaxLevels = 24

func (harPeledEngine) FindCycleSeparator(cfg *weights.Config) (*Result, error) {
	n := cfg.G.N()
	ops := hpnOps(n)
	Charge(cfg, "har-peled-nayyeri", ops)

	if len(cfg.FundamentalEdges()) == 0 {
		sep, err := searchCandidates(cfg, treeCandidate(cfg))
		if err != nil {
			return nil, err
		}
		return finish(cfg, "har-peled-nayyeri", sep, ops)
	}

	dual := cfg.Emb.BuildDual()
	fs := dual.Faces
	dist0 := sourceFaceBFS(cfg, fs)

	// Per-face level extent and per-level vertex counts in one sweep.
	faceMax := make([]int, fs.Count())
	maxLevel := 0
	for f := 0; f < fs.Count(); f++ {
		hi := 0
		for _, d := range fs.Cycle(f) {
			v := cfg.Emb.TailOf(int(d))
			if dist0[v] > hi {
				hi = dist0[v]
			}
		}
		faceMax[f] = hi
		if hi > maxLevel {
			maxLevel = hi
		}
	}
	cum := make([]int, maxLevel+2) // cum[l] = #vertices with dist < l
	for v := 0; v < n; v++ {
		cum[dist0[v]+1]++
	}
	for l := 1; l <= maxLevel+1; l++ {
		cum[l] += cum[l-1]
	}

	// Rank levels by |below - above| and extract boundary cycles for the
	// best few.
	levels := make([]int, 0, maxLevel)
	for l := 1; l <= maxLevel; l++ {
		levels = append(levels, l)
	}
	imbalance := func(l int) int { return absDiff(cum[l], n-cum[l+1]) }
	sort.SliceStable(levels, func(i, j int) bool { return imbalance(levels[i]) < imbalance(levels[j]) })
	if len(levels) > hpnMaxLevels {
		levels = levels[:hpnMaxLevels]
	}
	var cands []candidate
	for rank, l := range levels {
		// Region A: faces entirely below the level; region B: faces up to
		// and including it. Their boundaries bracket the level set.
		for variant := 0; variant < 2; variant++ {
			bound := l - 1 + variant
			faceIn := make([]bool, fs.Count())
			any := false
			for f := 0; f < fs.Count(); f++ {
				faceIn[f] = faceMax[f] <= bound
				any = any || faceIn[f]
			}
			if !any {
				continue
			}
			for ci, cyc := range regionBoundaryCycles(cfg, dual, faceIn) {
				cyc := cyc
				cands = append(cands, candidate{
					score: rank*8 + variant*4 + ci,
					phase: separator.PhaseLevelCycle,
					path:  func() []int { return cyc },
				})
			}
		}
	}
	// Degenerate level structures (e.g. a triangulated polygon, where every
	// vertex lies on the source face at level 0) produce no region cycles;
	// virtual closures through large faces back the engine up, scored
	// after every genuine level cycle.
	cands = append(cands, virtualPairCandidates(cfg, 1<<20)...)
	// On maximal triangulations every face is a triangle, so the virtual
	// tier above is empty too; fundamental T-paths scored by face weight
	// are the final tier (their own phase, so the level tier's budget
	// cannot starve them).
	for _, e := range cfg.FundamentalEdges() {
		cands = append(cands, fundamentalCandidate(cfg, e, (1<<21)+absDiff(2*cfg.Weight(e), n), separator.PhaseLongPath))
	}
	sep, err := searchCandidates(cfg, cands)
	if err != nil {
		return nil, err
	}
	return finish(cfg, "har-peled-nayyeri", sep, ops)
}

// sourceFaceBFS computes hop distances from the outer face: every vertex
// on its boundary is a level-0 source.
func sourceFaceBFS(cfg *weights.Config, fs *planar.Faces) []int {
	g := cfg.G
	n := g.N()
	dist0 := make([]int, n)
	for v := range dist0 {
		dist0[v] = -1
	}
	queue := make([]int, 0, n)
	for _, d := range fs.Cycle(cfg.Outer) {
		v := cfg.Emb.TailOf(int(d))
		if dist0[v] < 0 {
			dist0[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist0[w] < 0 {
				dist0[w] = dist0[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist0
}

// regionBoundaryCycles decomposes the boundary of a face region into
// vertex-simple cycles. A boundary edge has exactly one side in the
// region, so around every vertex the boundary edges come in pairs (the
// in/out pattern of incident faces switches an even number of times) and
// the boundary subgraph decomposes into edge-disjoint closed walks; the
// stack-popping walk below splits them into simple cycles.
func regionBoundaryCycles(cfg *weights.Config, dual *planar.Dual, faceIn []bool) [][]int {
	g := cfg.G
	n, m := g.N(), g.M()
	isBoundary := make([]bool, m)
	degree := make([]int32, n+1)
	total := 0
	for e := 0; e < m; e++ {
		if faceIn[dual.Side[e][0]] != faceIn[dual.Side[e][1]] {
			isBoundary[e] = true
			u, v := g.EndpointsOf(e)
			degree[u+1]++
			degree[v+1]++
			total += 2
		}
	}
	if total == 0 {
		return nil
	}
	// CSR adjacency of the boundary subgraph.
	off := degree
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	adj := make([]int32, total)
	fill := make([]int32, n)
	for e := 0; e < m; e++ {
		if !isBoundary[e] {
			continue
		}
		u, v := g.EndpointsOf(e)
		adj[off[u]+fill[u]] = int32(e)
		fill[u]++
		adj[off[v]+fill[v]] = int32(e)
		fill[v]++
	}
	used := make([]bool, m)
	cursor := make([]int32, n)
	pos := make([]int, n)
	for v := range pos {
		pos[v] = -1
	}
	var cycles [][]int
	nextEdge := func(v int) int {
		for cursor[v] < off[v+1]-off[v] {
			e := int(adj[off[v]+cursor[v]])
			cursor[v]++
			if !used[e] {
				return e
			}
		}
		return -1
	}
	other := func(e, v int) int {
		u, w := g.EndpointsOf(e)
		if int(u) == v {
			return int(w)
		}
		return int(u)
	}
	for startE := 0; startE < m; startE++ {
		if !isBoundary[startE] || used[startE] {
			continue
		}
		su, _ := g.EndpointsOf(startE)
		start := int(su)
		stack := []int{start}
		pos[start] = 0
		cur := start
		for {
			e := nextEdge(cur)
			if e < 0 {
				// Even degrees guarantee this only happens back at the
				// start with every incident boundary edge consumed.
				for _, v := range stack {
					pos[v] = -1
				}
				break
			}
			used[e] = true
			nxt := other(e, cur)
			if p := pos[nxt]; p >= 0 {
				cyc := append([]int(nil), stack[p:]...)
				if len(cyc) >= 3 {
					cycles = append(cycles, cyc)
				}
				for _, v := range stack[p+1:] {
					pos[v] = -1
				}
				stack = stack[:p+1]
			} else {
				pos[nxt] = len(stack)
				stack = append(stack, nxt)
			}
			cur = stack[len(stack)-1]
		}
	}
	return cycles
}

// hpnOps is the charged profile: one BFS wavefront, the per-level
// counting aggregations, and the final path marking.
func hpnOps(n int) dist.Ops {
	return dist.Ops{Local: shortcut.Log2Ceil(n + 1)}.
		Plus(dist.PAProblemOps().Times(2)).
		Plus(dist.MarkPathOps(n))
}

func init() { Register(harPeledEngine{}) }
