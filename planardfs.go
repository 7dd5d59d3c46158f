// Package planardfs is a from-scratch Go implementation of
// "Deterministic Distributed DFS via Cycle Separators in Planar Graphs"
// (Jauregui, Montealegre, Rapaport — PODC 2025).
//
// The package exposes the paper's two headline results over embedded planar
// graphs:
//
//   - Theorem 1: deterministic computation of cycle separators — T-path
//     separators closed by a real or ℰ-compatible virtual edge, leaving
//     components of at most 2n/3 vertices — in Õ(D) CONGEST rounds,
//     partition-parallel (FindCycleSeparator, SeparatorsForPartition).
//   - Theorem 2: deterministic construction of a DFS tree in Õ(D) CONGEST
//     rounds (BuildDFSTree).
//
// Everything the algorithms depend on is implemented in this module:
// combinatorial planar embeddings with face tracing and Jordan
// classification, planar graph generators, rooted spanning-tree machinery
// with embedding-ordered DFS orders, the deterministic face-weight formulas
// of Definition 2, a CONGEST-model simulator with message-level programs
// (BFS, pipelined part-wise aggregation, Awerbuch's DFS baseline), the
// low-congestion-shortcut cost layer, and a randomized-estimation baseline.
//
// Round accounting: algorithms are executed as local computation plus
// invocations of the paper's communication primitives; CostModel converts a
// run's primitive tally into simulated rounds, under either the paper's
// charged Õ(D) shortcut bound (PaperCost) or the measured pipelined
// O(D + k) bound (PipelinedCost).
package planardfs

import (
	"context"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/planar"
	"planardfs/internal/randsep"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/serve"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// Core re-exported types. Aliases keep the full method sets usable while the
// implementations live in internal packages.
type (
	// Graph is a simple undirected graph with stable edge identifiers.
	Graph = graph.Graph
	// Edge is an undirected vertex pair.
	Edge = graph.Edge
	// Embedding is a combinatorial planar embedding (clockwise rotation
	// system).
	Embedding = planar.Embedding
	// Instance is an embedded planar graph with a designated outer face.
	Instance = gen.Instance
	// Tree is a rooted spanning tree.
	Tree = spanning.Tree
	// Config is a planar configuration (G, ℰ, T) with precomputed DFS
	// orders, ready for weight and separator computations.
	Config = weights.Config
	// Separator is a cycle separator (a T-path with closing endpoints).
	Separator = separator.Separator
	// SeparatorPhase identifies which case of the algorithm produced a
	// separator.
	SeparatorPhase = separator.Phase
	// Partition is a vertex partition with connected parts.
	Partition = shortcut.Partition
	// PartSeparator is a per-part separator result.
	PartSeparator = separator.PartResult
	// DFSTree is a partial (or complete) DFS tree grown by the DFS-RULE.
	DFSTree = dfs.PartialTree
	// DFSTrace records the phase structure of a DFS construction run.
	DFSTrace = dfs.Trace
	// CostModel converts communication primitives into CONGEST rounds.
	CostModel = shortcut.CostModel
	// PaperCost charges the deterministic Õ(D) shortcut bound the paper
	// cites.
	PaperCost = shortcut.PaperCost
	// PipelinedCost charges the measured pipelined-aggregation bound
	// O(D + k).
	PipelinedCost = shortcut.PipelinedCost
	// Ops tallies invocations of the communication primitives.
	Ops = dist.Ops
	// Network is a CONGEST-model simulator over a graph.
	Network = congest.Network
	// NetworkStats aggregates instrumentation of a CONGEST run.
	NetworkStats = congest.Stats
	// Tracer receives round-stamped spans and metrics from instrumented
	// runs (see internal/trace).
	Tracer = trace.Tracer
	// TraceRecorder is the in-memory Tracer with JSONL and Chrome
	// trace_event exporters.
	TraceRecorder = trace.Recorder
	// TraceSpan is one recorded span.
	TraceSpan = trace.SpanEvent
	// TraceHistogram is a fixed-bucket histogram from a recorder.
	TraceHistogram = trace.Histogram
)

// NewTraceRecorder returns an empty trace recorder. Pass it wherever a
// Tracer is accepted (Config.Tracer, Network.Tracer, BuildDFSTreeTraced),
// then export with WriteJSONL, WriteChromeTrace or WriteMetrics.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NopTracer is the disabled tracer: every instrumented call site treats it
// (or a nil Tracer) as "tracing off" and skips all recording work.
var NopTracer = trace.Nop

// Graph generators (all return validated embeddings with an outer face).
var (
	// NewGrid returns the w x h grid graph.
	NewGrid = gen.Grid
	// NewCycle returns the n-cycle.
	NewCycle = gen.Cycle
	// NewWheel returns the wheel with an n-cycle rim.
	NewWheel = gen.Wheel
	// NewFan returns the fan graph on n vertices.
	NewFan = gen.Fan
	// NewStackedTriangulation returns a random maximal planar graph.
	NewStackedTriangulation = gen.StackedTriangulation
	// NewSparsePlanar returns a random connected planar graph.
	NewSparsePlanar = gen.SparsePlanar
	// NewPolygonTriangulation returns a random outerplanar triangulation.
	NewPolygonTriangulation = gen.PolygonTriangulation
	// NewRandomTree returns a random tree.
	NewRandomTree = gen.RandomTree
	// NewPathTree returns the path graph.
	NewPathTree = gen.PathTree
	// NewCaterpillar returns a caterpillar tree.
	NewCaterpillar = gen.Caterpillar
)

// TreeKind selects the spanning tree used by a configuration.
type TreeKind int

// Spanning tree kinds.
const (
	// TreeBFS uses a breadth-first tree (depth <= D; the common choice).
	TreeBFS TreeKind = iota + 1
	// TreeDeepDFS uses a depth-first tree (depth up to Θ(n); the stress
	// case the paper's subroutines are designed for).
	TreeDeepDFS
)

// OuterRoot returns a vertex on the instance's outer face, the natural root
// for spanning trees (the paper requires the root on the outer face).
func OuterRoot(in *Instance) int {
	fs := in.Emb.TraceFaces()
	return fs.FaceVertices(in.OuterFace())[0]
}

// NewConfig builds a planar configuration over the instance with a spanning
// tree of the given kind rooted at root (which must lie on the outer face).
func NewConfig(in *Instance, kind TreeKind, root int) (*Config, error) {
	var tr *Tree
	var err error
	switch kind {
	case TreeBFS:
		tr, err = spanning.BFSTree(in.G, root)
	case TreeDeepDFS:
		tr, err = spanning.DeepDFSTree(in.G, root)
	default:
		return nil, fmt.Errorf("planardfs: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
}

// FindCycleSeparator computes a cycle separator of the configuration's
// graph (Theorem 1).
func FindCycleSeparator(cfg *Config) (*Separator, error) {
	return separator.Find(cfg)
}

// Multi-backend separator engines (internal/sepengine): a registry of
// cycle-separator backends behind one interface — the paper's Theorem 1
// constructive engine, the BFS-level engine in the style of
// Har-Peled–Nayyeri, and a dual-tree weight-decomposition engine. Every
// engine output is cross-validated by the centralized separator oracle and
// side oracle of internal/cert before it is returned. An engine run is
// traced when the configuration's Tracer is set.

// SeparatorEngineResult is a validated engine output: the separator, side
// masks, balance, cycle length and charged round cost.
type SeparatorEngineResult = sepengine.Result

// ErrNoSeparator marks a legitimate engine failure: the engine ran to
// completion without finding a balanced cycle separator. The default
// engine (theorem1) never returns it on valid planar configurations.
var ErrNoSeparator = sepengine.ErrNoSeparator

// DefaultSeparatorEngine is the registry name of the Theorem 1 engine.
const DefaultSeparatorEngine = sepengine.DefaultEngine

// SeparatorEngines lists the registered engine names, sorted.
func SeparatorEngines() []string { return sepengine.Names() }

// FindCycleSeparatorWithEngine computes a validated cycle separator with
// the named engine (empty name selects the default). Unknown names return
// a typed error listing the available engines.
func FindCycleSeparatorWithEngine(cfg *Config, engine string) (*SeparatorEngineResult, error) {
	return sepengine.Find(engine, cfg)
}

// SeparatorsForPartition computes a cycle separator of every part's induced
// subgraph (the partition-parallel form of Theorem 1). Parts must induce
// connected subgraphs.
func SeparatorsForPartition(in *Instance, part *Partition) ([]*PartSeparator, error) {
	if err := part.Validate(in.G); err != nil {
		return nil, err
	}
	return separator.ForPartition(in.Emb, in.OuterDart, part)
}

// NewPartition builds a Partition from a part-of array (part IDs 0..k-1).
func NewPartition(partOf []int) (*Partition, error) {
	return shortcut.NewPartition(partOf)
}

// SeparatorForSubset computes a cycle separator of the subgraph induced by
// vs (which must be connected), in original vertex IDs.
func SeparatorForSubset(in *Instance, vs []int) (*Separator, error) {
	return separator.ForSubset(in.Emb, in.OuterFace(), vs)
}

// Decomposition is a recursive separator decomposition tree.
type Decomposition = separator.Decomposition

// DecompositionNode is one piece of a decomposition tree.
type DecompositionNode = separator.DecompositionNode

// DecomposeGraph recursively splits the instance with cycle separators
// until pieces have at most leafSize vertices — the divide-and-conquer
// skeleton of the classical separator applications. The tree depth is
// O(log n) by the 2/3 balance.
func DecomposeGraph(in *Instance, leafSize int) (*Decomposition, error) {
	return separator.Decompose(in.Emb, in.OuterDart, leafSize)
}

// VerifySeparatorBalance returns the largest component after removing the
// separator vertices; a valid separator has max component <= 2n/3.
func VerifySeparatorBalance(g *Graph, sep []int) int {
	return separator.VerifyBalance(g, sep)
}

// BuildDFSTree constructs a DFS tree of the instance rooted at root
// (Theorem 2), returning the tree and the recursion trace.
func BuildDFSTree(in *Instance, root int) (*DFSTree, *DFSTrace, error) {
	return dfs.Build(in.G, in.Emb, in.OuterDart, root)
}

// BuildDFSTreeTraced is BuildDFSTree with the whole run — DFS phases, join
// sub-phases, per-component separator computations and their lemma
// subroutines, and the charged communication primitives — recorded on
// tracer as round-stamped spans. A nil tracer disables tracing.
func BuildDFSTreeTraced(in *Instance, root int, tracer Tracer) (*DFSTree, *DFSTrace, error) {
	return dfs.BuildTraced(in.G, in.Emb, in.OuterDart, root, tracer)
}

// VerifyDFSTree checks the DFS property: parent must describe a spanning
// tree of g rooted at root in which every graph edge connects an
// ancestor-descendant pair.
func VerifyDFSTree(g *Graph, root int, parent []int) error {
	return dfs.IsDFSTree(g, root, parent)
}

// Distributed certification (internal/cert): proof-labeling schemes whose
// verifiers run on the CONGEST simulator — an O(log n)-bit label per vertex,
// an O(1)-round label exchange, and one part-wise aggregation of the
// verdicts.
type (
	// CertVerdict is the outcome of a certification run: global acceptance,
	// rejecting vertices, and round/label-size accounting.
	CertVerdict = cert.Verdict
	// CertOptions configure a certification run (engine selection, tracer).
	CertOptions = cert.Options
)

// CertifySpanningTree proves and distributively verifies that t is a rooted
// spanning tree of g.
func CertifySpanningTree(g *Graph, t *Tree, opt CertOptions) (*CertVerdict, error) {
	return cert.CertifySpanningTree(g, t, opt)
}

// CertifyDFSTree proves and distributively verifies the DFS property of the
// parent array: preorder-interval labels, with every non-tree edge checked
// to be a back edge.
func CertifyDFSTree(g *Graph, root int, parent []int, opt CertOptions) (*CertVerdict, error) {
	return cert.CertifyDFSTree(g, root, parent, opt)
}

// CertifySeparator proves and distributively verifies the separator
// property of sep: a simple G-path whose removal leaves components of at
// most 2n/3 vertices.
func CertifySeparator(g *Graph, sep *Separator, opt CertOptions) (*CertVerdict, error) {
	return cert.CertifySeparator(g, sep, opt)
}

// CertifyEmbedding proves and distributively verifies the Euler sanity of
// the embedding (genus 0 via aggregated face-leader counts).
func CertifyEmbedding(emb *Embedding, opt CertOptions) (*CertVerdict, error) {
	return cert.CertifyEmbedding(emb, opt)
}

// SeparatorRounds returns the simulated CONGEST round cost of one
// partition-parallel cycle-separator computation (Theorem 1) on an n-vertex
// graph under the cost model, with k concurrent parts.
func SeparatorRounds(n int, cm CostModel, k int) int {
	return dist.SeparatorOps(n).Rounds(cm, k)
}

// DFSRounds returns the simulated CONGEST round cost of a DFS construction
// run with the given trace under the cost model.
func DFSRounds(n int, tr *DFSTrace, cm CostModel) int {
	return dist.DFSBuildOps(n, tr.Phases, tr.MaxJoinSubPhases).Rounds(cm, 1)
}

// AwerbuchRounds returns the round cost of the classical DFS baseline [2].
func AwerbuchRounds(n int) int { return dist.AwerbuchRounds(n) }

// RunAwerbuchDFS executes Awerbuch's token DFS as a real message-level
// CONGEST program and returns the resulting DFS parent array and the
// network statistics.
func RunAwerbuchDFS(g *Graph, root int) ([]int, NetworkStats, error) {
	nw := congest.New(g)
	nodes := congest.NewAwerbuchNodes(nw, root)
	if _, err := nw.Run(nodes, 10*g.N()+100); err != nil {
		return nil, NetworkStats{}, err
	}
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = nodes[v].(*congest.AwerbuchNode).ParentID
	}
	return parent, nw.Stats(), nil
}

// RunPartwiseSum executes the pipelined part-wise aggregation as a real
// message-level CONGEST program, summing value per part; it returns the
// per-vertex results and network statistics.
func RunPartwiseSum(g *Graph, root int, part *Partition, value []int) ([]int, NetworkStats, error) {
	res, err := shortcut.RunPA(g, root, part, value, congest.OpSum)
	if err != nil {
		return nil, NetworkStats{}, err
	}
	return res.Values, res.Stats, nil
}

// Deterministic fault injection and certified recovery (internal/chaos):
// seeded fault plans perturb CONGEST runs reproducibly, and the supervised
// runtime retries, degrades or fails explicitly — never returning an
// uncertified result.
type (
	// FaultPlan is a deterministic fault scenario: explicit faults plus a
	// seeded randomized Spec, re-derived per recovery attempt.
	FaultPlan = chaos.Plan
	// FaultSpec sizes the randomized portion of a fault plan.
	FaultSpec = chaos.Spec
	// FaultCounts tallies faults that actually fired during a run.
	FaultCounts = chaos.Counts
	// RecoveryPolicy bounds the supervised runtime (attempts, round
	// budgets, backoff, tracing).
	RecoveryPolicy = chaos.Policy
	// RecoveryReport is the full account of a supervised run: terminal
	// outcome, per-attempt records, fired faults, and verdicts.
	RecoveryReport = chaos.Report
	// RecoveryOutcome classifies how a supervised run ended.
	RecoveryOutcome = chaos.Outcome
)

// The supervised outcomes re-exported from internal/chaos.
const (
	RecoveryCertified      = chaos.OutcomeCertified
	RecoveryCertifiedRetry = chaos.OutcomeCertifiedRetry
	RecoveryDegraded       = chaos.OutcomeDegraded
	RecoveryFailed         = chaos.OutcomeFailed
	// RecoveryRejectedInput: the guard stage of a guarded run rejected the
	// input before any producer attempt ran.
	RecoveryRejectedInput = chaos.OutcomeRejectedInput
)

// NewFaultPlan returns a plan deriving spec-sized random faults from seed.
func NewFaultPlan(seed int64, spec FaultSpec) *FaultPlan {
	return chaos.NewPlan(seed, spec)
}

// ParseFaultSpec parses a CLI fault-spec string, e.g.
// "drops=2,corruptions=1,crashes=1,structural=4".
func ParseFaultSpec(s string) (FaultSpec, error) { return chaos.ParseSpec(s) }

// Input validation (internal/guard): the admission subsystem that runs
// before the Theorem 2 pipeline and rejects non-planar and
// corrupted-embedding inputs with typed, certifiable verdicts — a
// distributed rotation/endpoint consistency check, a one-sided-error
// CONGEST planarity property tester, and the Euler-count certification,
// all as real node programs on the simulator.
type (
	// GuardVerdict is the outcome of a validation run: per-stage results
	// with measured CONGEST cost, and a witness on rejection.
	GuardVerdict = guard.Verdict
	// GuardWitness is the concrete evidence attached to a rejection.
	GuardWitness = guard.Witness
	// GuardOptions configure a validation run (tester seed and ball
	// budget, tracing).
	GuardOptions = guard.Options
	// GuardReason classifies a rejection (shape, disconnected, rotation,
	// endpoint-mismatch, edge-count, dense-region, euler).
	GuardReason = guard.Reason
	// GuardRejectionError is the typed error form of a rejecting verdict.
	GuardRejectionError = guard.RejectionError
)

// ErrInputRejected is the sentinel every guard rejection matches:
// errors.Is(err, ErrInputRejected) distinguishes "the input is bad" from
// infrastructure failures.
var ErrInputRejected = guard.ErrRejected

// ValidateEmbedding validates an instance's graph and claimed embedding
// end to end — shape and connectivity prechecks, the distributed rotation
// consistency check, the planarity property tester, and the Euler-count
// certification. A bad input is a rejecting verdict (verdict.Err()
// returns the typed GuardRejectionError), not an error.
func ValidateEmbedding(in *Instance, opt GuardOptions) (*GuardVerdict, error) {
	return guard.ValidateInstance(in, opt)
}

// ValidatePlanarity validates a bare graph (no embedding claims) with the
// prechecks and the one-sided-error planarity tester: a connected planar
// graph is always accepted; a non-planar graph is rejected when an
// edge-count or dense-region witness is found.
func ValidatePlanarity(g *Graph, opt GuardOptions) (*GuardVerdict, error) {
	return guard.ValidateGraph(g, opt)
}

// BuildDFSTreeGuarded constructs a DFS tree of the instance (Theorem 2)
// through internal/pipeline: the guard validates the instance first (a
// rejection ends the run as RecoveryRejectedInput, carrying the typed
// rejection, before any producer runs), then one BFS tree, then the
// separator pipeline under the plan's structural faults, certified by the
// DFS proof-labeling scheme, retried, and degraded to Awerbuch's token DFS
// when every attempt is rejected. The parent array is valid only when the
// Outcome is certified, certified-after-retry or degraded; a nil plan runs
// fault-free, and cancelling ctx stops retries with an error wrapping
// ctx.Err().
func BuildDFSTreeGuarded(ctx context.Context, in *Instance, root int, gopt GuardOptions, plan *FaultPlan, pol RecoveryPolicy) ([]int, *RecoveryReport, error) {
	res, err := pipeline.Run(ctx, in, pipeline.Options{Root: root, Guard: &gopt, Plan: plan, Policy: pol})
	return res.Parent, res.Report, err
}

// Simulation-as-a-service (internal/serve): an embeddable HTTP job server
// that runs the separator/DFS/cert/chaos pipelines on a bounded worker
// pool and answers repeat queries from a content-addressed decomposition
// cache. Run standalone with cmd/planard, or mount a JobServer under any
// http mux.
type (
	// JobServer is the embeddable simulation service (an http.Handler).
	JobServer = serve.Server
	// JobServerOptions size a JobServer (workers, queue depth, cache
	// budget, admission limits).
	JobServerOptions = serve.Options
	// JobStatus is the lifecycle view of one submitted job.
	JobStatus = serve.JobStatus
	// JobRequest is the POST /v1/jobs submission body.
	JobRequest = serve.JobRequest
)

// NewJobServer starts a simulation job server; stop it with Shutdown.
func NewJobServer(opts JobServerOptions) *JobServer { return serve.New(opts) }

// CanonicalGraphBytes returns the canonical byte encoding of an instance —
// the deterministic serialization whose SHA-256 (GraphContentHash) keys
// the serve layer's decomposition cache.
func CanonicalGraphBytes(in *Instance) []byte { return gen.CanonicalBytes(in) }

// GraphContentHash returns the content address of an instance (lowercase
// hex SHA-256 of CanonicalGraphBytes).
func GraphContentHash(in *Instance) string { return gen.ContentHash(in) }

// RandomizedSeparator runs the sampling-estimation baseline (Ghaffari-
// Parter style, internal/randsep): it may fail with an error wrapping
// ErrNoSeparator (no estimate in the safety band, or a sampled face that
// is unbalanced); see experiment E10. The sample count is returned even on
// such a failure. The RNG is derived from seed, never from the
// process-global generator. A zero sampleRate or margin selects the
// defaults (0.25 and 0.03).
func RandomizedSeparator(cfg *Config, sampleRate, margin float64, seed int64) (*Separator, int, error) {
	res, err := randsep.Find(cfg, sampleRate, margin, seed)
	if res == nil {
		return nil, 0, err
	}
	return res.Sep, res.Samples, err
}

// BFSLevelSeparator returns the classical Lipton-Tarjan first-step
// baseline: the median BFS level.
func BFSLevelSeparator(g *Graph, root int) []int {
	return separator.BFSLevelSeparator(g, root)
}
