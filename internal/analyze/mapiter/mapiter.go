// Package mapiter defines the planarvet analyzer that forbids ranging
// over maps in the deterministic packages of the CONGEST stack.
//
// Go randomizes map iteration order on purpose. In most code that is a
// hygiene feature; in this repo it is a correctness hazard: the engine
// contracts promise byte-identical inbox orderings, trace streams and
// certification verdicts across runs and against the reference, and a single
// `for k := range m` whose order reaches a message schedule, a statistic
// or an exported trace breaks all three silently. The analyzer therefore
// rejects every map range statement in the deterministic package list
// unless the site carries a //planarvet:orderinvariant <reason>
// annotation asserting that iteration order genuinely cannot be observed
// (for example: the body only folds into a commutative aggregate).
package mapiter

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"planardfs/internal/analyze/vetutil"
)

// DefaultPackages is the comma-separated list of import-path suffixes the
// determinism contract covers; override with -mapiter.packages.
const DefaultPackages = "internal/congest,internal/dist,internal/dfs,internal/separator,internal/shortcut,internal/cert,internal/weights,internal/spanning,internal/chaos,internal/serve,internal/graph,internal/planar,internal/gen,internal/sepengine,internal/guard,internal/pipeline"

var packages string

// Analyzer flags `for … range` over map types in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name:     "mapiter",
	Doc:      "forbid map iteration in deterministic packages (order leaks break run-for-run reproducibility); suppress with //planarvet:orderinvariant <reason>",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.StringVar(&packages, "packages", DefaultPackages,
		"comma-separated import-path suffixes of packages under the determinism contract")
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := vetutil.NewDirectives(pass)
	dirs.ReportBare(pass, "orderinvariant")
	if !vetutil.PathMatches(pass.Pkg.Path(), packages) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rs := n.(*ast.RangeStmt)
		if vetutil.InTestFile(pass, rs.Pos()) {
			return
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return
		}
		if dirs.SuppressedAt(rs.For, "orderinvariant") {
			return
		}
		pass.Reportf(rs.For,
			"range over map %s in deterministic package %s: iteration order is randomized; sort the keys, or annotate //planarvet:orderinvariant <reason> if order cannot be observed",
			types.ExprString(rs.X), pass.Pkg.Path())
	})
	return nil, nil
}
