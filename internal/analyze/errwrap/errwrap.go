// Package errwrap defines the planarvet analyzer that polices error
// discipline: sentinel matching through errors.Is/As and chain-preserving
// wrapping with %w.
//
// The repo's error surface is built on sentinels wrapped with context —
// a randomized-baseline miss wraps ErrNoSeparator with its sample count,
// an engine's invalid output wraps the certifier's error — precisely so
// that callers can match on the sentinel while the message carries run
// statistics. That design dies quietly at two kinds of call sites:
//
//   - `err == ErrNoSeparator` is false for every wrapped form, so the
//     fallback path silently stops firing the day an engine starts
//     returning a wrapped error. Identity comparison of non-nil
//     errors (==, !=, or a switch over an error value) must be errors.Is,
//     which walks the Unwrap chain.
//   - `fmt.Errorf("context: %v", err)` stringifies the chain instead of
//     extending it: everything upstream of the wrap becomes unmatchable.
//     An error operand of fmt.Errorf requires the %w verb.
//
// Comparisons against nil stay idiomatic and are never flagged. A site
// where identity really is intended (comparing an error to itself as a
// marker, a deliberate chain break at an API boundary) carries
// //planarvet:errok <reason>.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"planardfs/internal/analyze/vetutil"
)

// Analyzer enforces errors.Is/As sentinel matching and %w wrapping.
var Analyzer = &analysis.Analyzer{
	Name:     "errwrap",
	Doc:      "compare non-nil errors with errors.Is/As, never ==/!= or switch; fmt.Errorf with an error operand must wrap with %w (suppress with //planarvet:errok <reason>)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := vetutil.NewDirectives(pass)
	dirs.ReportBare(pass, "errok")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{
		(*ast.BinaryExpr)(nil),
		(*ast.SwitchStmt)(nil),
		(*ast.CallExpr)(nil),
	}, func(n ast.Node) {
		if vetutil.InTestFile(pass, n.Pos()) {
			return
		}
		switch e := n.(type) {
		case *ast.BinaryExpr:
			checkComparison(pass, dirs, e)
		case *ast.SwitchStmt:
			checkSwitch(pass, dirs, e)
		case *ast.CallExpr:
			checkErrorf(pass, dirs, e)
		}
	})
	return nil, nil
}

// isError reports whether the expression's static type implements error
// and the expression is not the nil literal.
func isError(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func checkComparison(pass *analysis.Pass, dirs *vetutil.Directives, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isError(pass, be.X) || !isError(pass, be.Y) {
		return
	}
	if dirs.SuppressedAt(be.Pos(), "errok") {
		return
	}
	pass.Reportf(be.Pos(),
		"comparison of non-nil errors with %s: identity misses every wrapped form; use errors.Is(%s, %s), or annotate //planarvet:errok <reason> if identity is intended",
		be.Op, types.ExprString(be.X), types.ExprString(be.Y))
}

// checkSwitch flags `switch err { case ErrX: }`: each case arm is an
// identity comparison in disguise.
func checkSwitch(pass *analysis.Pass, dirs *vetutil.Directives, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isError(pass, sw.Tag) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if !isError(pass, e) {
				continue
			}
			if dirs.SuppressedAt(e.Pos(), "errok") {
				continue
			}
			pass.Reportf(e.Pos(),
				"switch case compares error %s by identity: wrapped forms never match; rewrite as an errors.Is chain, or annotate //planarvet:errok <reason>",
				types.ExprString(e))
		}
	}
}

// checkErrorf flags fmt.Errorf calls that pass an error operand without a
// %w verb in a constant format string.
func checkErrorf(pass *analysis.Pass, dirs *vetutil.Directives, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" || len(call.Args) < 2 {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return
	}
	ftv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || ftv.Value == nil || ftv.Value.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(ftv.Value), "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if !isError(pass, arg) {
			continue
		}
		if dirs.SuppressedAt(call.Pos(), "errok") {
			return
		}
		pass.Reportf(call.Pos(),
			"fmt.Errorf formats error %s without %%w: the chain is cut and errors.Is/As stop matching upstream; wrap with %%w, or annotate //planarvet:errok <reason>",
			types.ExprString(arg))
		return
	}
}
