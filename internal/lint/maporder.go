package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporder checks that no `range` over a map feeds an order-sensitive sink
// without an intervening deterministic sort. Go randomizes map iteration
// order per run, so a loop that appends map keys/values to a slice that is
// never sorted, or that writes each entry straight into an encoder, an
// io.Writer, or a hash, produces output that differs between two
// same-seed runs — exactly the bug class that would desync byte-identical
// cluster traces, merged SERPs, or /statz snapshots.
//
// Three sink shapes are recognized inside the loop body:
//
//   - append: `s = append(s, ...)`. Accepted when the slice is passed to a
//     sort (sort.*/slices.* or any call whose name contains "Sort") after
//     the loop; flagged otherwise.
//   - direct write: a call to Encode/Write/WriteString/WriteByte/
//     WriteRune, or fmt's Fprint/Fprintf/Fprintln/Print/Printf/Println —
//     the iteration order escapes immediately, so no later sort can help.
//   - selection: an argmin or argmax, `if d < bestD { best, bestD = k, d }`,
//     that stores the loop's key or value under an ordering comparison.
//     Of two entries that tie, the one the map yields first wins. A stored
//     expression that is itself compared is accepted: a value-only min or
//     max (`if v > max { max = v }`) is the same whatever the order, and an
//     argmin that breaks ties on the key (`|| d == bestD && k < best`) is
//     too.
//
// Appends to slices declared inside the loop body are exempt: a
// per-iteration slice is rebuilt fresh each pass, so its internal order
// cannot depend on which map key came first. In typed mode the ranged
// expression must actually be a map; syntactic mode (testdata) infers
// map-ness from local `make(map`, map literals, and `var x map[...]`
// declarations in the same file. Test files are exempt: building an
// order-invariant dataset (a set, a counter map) from a fixture map is a
// test idiom, and assertions compare contents, not order.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "range over a map feeding an append, encoder, io.Writer, hash, or an argmin/argmax " +
		"needs a deterministic order, or same-seed runs stop being byte-identical",
	SkipTestFiles: true,
	run:           runMaporder,
}

const maporderHint = "collect the keys, sort them, and iterate the sorted slice " +
	"(or sort the collected slice right after the loop)"

const maporderSelectHint = "iterate a slice in a fixed order, or break ties on the key " +
	"in the comparison itself"

// maporderWriteSinks are method names that emit data in call order.
var maporderWriteSinks = map[string]bool{
	"Encode":      true,
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

// maporderFmtSinks are fmt package functions that emit data in call order.
var maporderFmtSinks = map[string]bool{
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
	"Print":    true,
	"Printf":   true,
	"Println":  true,
}

func runMaporder(p *Pass, f *ast.File) {
	syntacticMaps := map[string]bool{}
	if p.Info == nil {
		syntacticMaps = collectSyntacticMaps(f)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		walkStmts(body.List, func(s ast.Stmt) {
			rng, ok := s.(*ast.RangeStmt)
			if !ok || !p.isMapExpr(rng.X, syntacticMaps) {
				return
			}
			checkMapRange(p, f, body, rng)
		})
		return false // walkStmts already visited nested non-literal bodies
	})
}

// checkMapRange inspects one map-range loop body for order-sensitive sinks.
func checkMapRange(p *Pass, f *ast.File, body *ast.BlockStmt, rng *ast.RangeStmt) {
	var appends []*ast.AssignStmt
	var selections []*ast.IfStmt
	inspectNoFuncLit(rng.Body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.IfStmt:
			selections = append(selections, st)
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isAppendCall(call) || i >= len(st.Lhs) {
					continue
				}
				appends = append(appends, st)
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if path, name, ok := p.resolvePkgSel(f, sel); ok {
				if path == "fmt" && maporderFmtSinks[name] {
					p.Reportf(st.Pos(), maporderHint,
						"fmt.%s inside range over map emits entries in nondeterministic order", name)
				}
				return
			}
			if maporderWriteSinks[sel.Sel.Name] {
				p.Reportf(st.Pos(), maporderHint,
					"%s inside range over map emits entries in nondeterministic order",
					types.ExprString(sel))
			}
		}
	})
	// A slice declared inside the loop body is rebuilt per iteration; its
	// element order cannot depend on map iteration order. Likewise a
	// selection stored into a loop-local variable does not outlive its
	// iteration.
	loopLocal := declaredNames(rng.Body)
	for _, st := range selections {
		checkSelection(p, rng, st, loopLocal)
	}
	for _, st := range appends {
		for i, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isAppendCall(call) || i >= len(st.Lhs) {
				continue
			}
			target := types.ExprString(st.Lhs[i])
			if loopLocal[target] {
				continue
			}
			if sortFollows(p, f, body, rng.End(), target) {
				continue
			}
			p.Reportf(st.Pos(), maporderHint,
				"append to %q inside range over map without a deterministic sort after the loop", target)
		}
	}
}

// checkSelection flags an argmin/argmax in a map-range loop: an if whose
// condition makes an ordering comparison and whose body assigns the
// loop's key or value to a variable that outlives the iteration. A stored
// expression that is an operand of one of the comparisons is accepted
// (see maporderAnalyzer).
func checkSelection(p *Pass, rng *ast.RangeStmt, st *ast.IfStmt, loopLocal map[string]bool) {
	var loopVars []string
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			loopVars = append(loopVars, id.Name)
		}
	}
	compared := map[string]bool{}
	ast.Inspect(st.Cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				compared[types.ExprString(b.X)] = true
				compared[types.ExprString(b.Y)] = true
			}
		}
		return true
	})
	if len(loopVars) == 0 || len(compared) == 0 {
		return
	}
	inspectNoFuncLit(st.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return
		}
		for i, lhs := range as.Lhs {
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			target := types.ExprString(lhs)
			if loopLocal[target] || compared[types.ExprString(rhs)] {
				continue
			}
			for _, v := range loopVars {
				if exprMentions(rhs, v) {
					p.Reportf(as.Pos(), maporderSelectHint,
						"%q stored under an ordering comparison inside range over map: "+
							"entries that tie resolve in nondeterministic iteration order", target)
					return
				}
			}
		}
	})
}

// declaredNames collects every identifier declared inside block: `x := ...`
// define-assigns, `var x ...` declarations, and nested range key/value
// bindings.
func declaredNames(block *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			names[id.Name] = true
		}
	}
	inspectNoFuncLit(block, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					addIdent(lhs)
				}
			}
		case *ast.ValueSpec:
			for _, id := range st.Names {
				addIdent(id)
			}
		case *ast.RangeStmt:
			if st.Tok == token.DEFINE {
				addIdent(st.Key)
				if st.Value != nil {
					addIdent(st.Value)
				}
			}
		}
	})
	return names
}

// isMapExpr reports whether e is map-typed: exactly, via the type checker,
// or (syntactic mode) because e is an identifier the file visibly binds to
// a map.
func (p *Pass) isMapExpr(e ast.Expr, syntacticMaps map[string]bool) bool {
	if p.Info != nil {
		tv, ok := p.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	id, ok := e.(*ast.Ident)
	return ok && syntacticMaps[id.Name]
}

// collectSyntacticMaps scans f for identifiers visibly bound to maps:
// `x := make(map[...]...)`, `x := map[...]...{...}`, `var x map[...]...`,
// and map-typed function parameters or struct fields.
func collectSyntacticMaps(f *ast.File) map[string]bool {
	maps := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.Field:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					maps[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range d.Rhs {
				if i >= len(d.Lhs) {
					break
				}
				id, ok := d.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if exprMakesMap(rhs) {
					maps[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					maps[id.Name] = true
				}
			}
			for i, v := range d.Values {
				if i < len(d.Names) && exprMakesMap(v) {
					maps[d.Names[i].Name] = true
				}
			}
		}
		return true
	})
	return maps
}

// exprMakesMap reports whether e is visibly a map value: a map composite
// literal or a make(map[...]...) call.
func exprMakesMap(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		id, ok := v.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(v.Args) == 0 {
			return false
		}
		_, ok = v.Args[0].(*ast.MapType)
		return ok
	}
	return false
}

// isAppendCall reports whether call is the builtin append.
func isAppendCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// sortFollows reports whether the enclosing function sorts target anywhere
// after the loop ends: a call into sort/slices, or any call whose name
// contains "Sort", with an argument mentioning target. The search is
// positional (anywhere in body past `after`) rather than path-sensitive:
// a sort after an enclosing loop's boundary still counts, which matters
// for the common shape `for k := range outer { for v := range inner {
// s = append(s, ...) } }; sort.Slice(s, ...)`.
func sortFollows(p *Pass, f *ast.File, body *ast.BlockStmt, after token.Pos, target string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		if !isSortCall(p, f, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall reports whether call is a sorting call: any sort.* or
// slices.* function, or any function whose name contains "Sort".
func isSortCall(p *Pass, f *ast.File, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if path, _, ok := p.resolvePkgSel(f, fun); ok {
			return path == "sort" || path == "slices"
		}
		return containsSort(fun.Sel.Name)
	case *ast.Ident:
		return containsSort(fun.Name)
	}
	return false
}

func containsSort(name string) bool {
	for i := 0; i+4 <= len(name); i++ {
		if name[i] == 'S' || name[i] == 's' {
			if (name[i+1] == 'o') && name[i+2] == 'r' && name[i+3] == 't' {
				return true
			}
		}
	}
	return false
}

// exprMentions reports whether target's rendered form appears as a
// (sub)expression of e — `keys`, `byID(keys)`, `s.items[:]` all mention
// their slice.
func exprMentions(e ast.Expr, target string) bool {
	if types.ExprString(e) == target {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && types.ExprString(sub) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// inspectNoFuncLit walks n, visiting statements and expressions but not
// descending into function literals (their bodies run at some other time,
// possibly not per-iteration).
func inspectNoFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if c != nil {
			visit(c)
		}
		return true
	})
}
