package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// WireAlloc reports allocations sized by attacker-controlled wire
// bytes. In the decoder packages (dist codec/protocol/checkpoint,
// federated mask/codec, serving wire, wire frames and records, cas
// protocol, the tf graph/tensor/checkpoint and tflite model loaders) an
// integer decoded from a frame — a binary.LittleEndian.Uint32, a
// wire.Reader.U32, a byte plucked out of the payload — is an
// allocation hint the peer chose. Passing it to make(), or letting it
// bound an append loop, without first comparing it against a limit
// lets a 4-byte header demand gigabytes.
//
// The check is a per-function taint pass: values produced by binary
// reads, the record reader's fixed-width reads and read* helpers are
// tainted; arithmetic over tainted values stays tainted; appearing in
// an if-statement comparison sanitizes a variable (the
// `if n > uint64(r.Len())`-style guards). wire.Reader.Count has made
// that comparison already, so its result is clean. Tainted make()
// sizes and tainted for-append bounds are flagged.
var WireAlloc = &Analyzer{
	Name: "wirealloc",
	Doc: `no attacker-sized allocations in wire decoders

An integer decoded from wire bytes must be bounds-checked before it
sizes a make() or bounds an append loop. Compare it against the
remaining payload or a protocol limit first — a corrupt frame is an
error, not an allocation hint to honour.`,
	Run: runWireAlloc,
}

var readHelperName = regexp.MustCompile(`(?i)^read`)

func runWireAlloc(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), "dist", "federated", "serving", "core", "cas", "wire", "tf", "tflite") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &wireAllocWalker{pass: pass, state: map[*types.Var]*taintState{}}
			w.stmts(fd.Body.List)
		}
	}
	return nil
}

// taintState tracks one variable: where it became tainted and where
// (if anywhere) a comparison sanitized it.
type taintState struct {
	taintPos    token.Pos
	sanitizePos token.Pos // NoPos until sanitized
}

func (ts *taintState) taintedAt(pos token.Pos) bool {
	return ts != nil && ts.taintPos < pos && (ts.sanitizePos == token.NoPos || ts.sanitizePos > pos)
}

type wireAllocWalker struct {
	pass  *Pass
	state map[*types.Var]*taintState
}

// stmts walks statements in source order, updating taint state and
// reporting tainted allocations as they appear.
func (w *wireAllocWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *wireAllocWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.checkExprs(s.Rhs)
		w.assign(s.Lhs, s.Rhs, s.Tok == token.ASSIGN || s.Tok == token.DEFINE)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.checkExprs(vs.Values)
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					w.assign(lhs, vs.Values, true)
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.checkExpr(s.Cond)
		w.sanitizeComparisons(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond)
			w.checkLoopBound(s)
		}
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		w.stmts(s.Body.List)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.checkExprs(cc.List)
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.ExprStmt:
		w.checkExpr(s.X)
	case *ast.ReturnStmt:
		w.checkExprs(s.Results)
	case *ast.GoStmt:
		w.checkExpr(s.Call)
	case *ast.DeferStmt:
		w.checkExpr(s.Call)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.checkExpr(s.Value)
	}
}

// assign propagates taint from RHS expressions to LHS variables. For
// op-assignments (n += 4) the old value persists, so existing taint is
// kept rather than overwritten.
func (w *wireAllocWalker) assign(lhs, rhs []ast.Expr, plain bool) {
	taintLHS := func(e ast.Expr, pos token.Pos) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		v := w.objOf(id)
		if v == nil {
			return
		}
		w.state[v] = &taintState{taintPos: pos}
	}
	clearLHS := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if v := w.objOf(id); v != nil {
				delete(w.state, v)
			}
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value call: taint the integer-typed results of wire
		// read helpers (n, err := readUint(r, 4)).
		if call, ok := rhs[0].(*ast.CallExpr); ok && w.isWireRead(call) {
			for _, l := range lhs {
				if id, ok := l.(*ast.Ident); ok {
					if v := w.objOf(id); v != nil && isInteger(v.Type()) {
						w.state[v] = &taintState{taintPos: call.Pos()}
					}
				}
			}
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		if w.taintedExpr(rhs[i]) {
			taintLHS(l, rhs[i].Pos())
		} else if plain {
			clearLHS(l)
		}
	}
}

// sanitizeComparisons marks every variable mentioned in a comparison
// inside an if condition as bounds-checked from here on.
func (w *wireAllocWalker) sanitizeComparisons(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			for _, side := range []ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if v := w.objOf(id); v != nil {
							if ts := w.state[v]; ts != nil && ts.sanitizePos == token.NoPos {
								ts.sanitizePos = cond.Pos()
							}
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// checkExprs/checkExpr look for make() calls whose size arguments are
// tainted, anywhere inside the expression trees.
func (w *wireAllocWalker) checkExprs(list []ast.Expr) {
	for _, e := range list {
		w.checkExpr(e)
	}
}

func (w *wireAllocWalker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			return true
		}
		for _, arg := range call.Args[1:] {
			if v, pos := w.firstTaintedIdent(arg); v != nil {
				w.pass.Reportf(pos, "make sized by %q, an unvalidated integer decoded from wire bytes; bounds-check it against the remaining payload or a protocol limit first", v.Name())
				break
			}
		}
		return true
	})
}

// checkLoopBound flags for-loops whose condition is bounded by an
// unvalidated wire integer when the body grows a slice with append —
// the loop shape of "read count, append count entries".
func (w *wireAllocWalker) checkLoopBound(s *ast.ForStmt) {
	be, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.LSS && be.Op != token.LEQ) {
		return
	}
	v, pos := w.firstTaintedIdent(be.Y)
	if v == nil {
		if v, pos = w.firstTaintedIdent(be.X); v == nil {
			return
		}
	}
	grows := false
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					grows = true
					return false
				}
			}
		}
		return true
	})
	if grows {
		w.pass.Reportf(pos, "append loop bounded by %q, an unvalidated integer decoded from wire bytes; bounds-check it against the remaining payload or a protocol limit first", v.Name())
	}
}

// firstTaintedIdent returns the first identifier in e that is tainted
// at its use position.
func (w *wireAllocWalker) firstTaintedIdent(e ast.Expr) (*types.Var, token.Pos) {
	var found *types.Var
	var pos token.Pos
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v := w.objOf(id); v != nil && w.state[v].taintedAt(id.Pos()) {
				found, pos = v, id.Pos()
				return false
			}
		}
		return true
	})
	return found, pos
}

// taintedExpr reports whether e produces a wire-controlled integer:
// binary reads, read* helper calls, indexing into a byte slice, and
// arithmetic or conversions over any of those.
func (w *wireAllocWalker) taintedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		v := w.objOf(e)
		return v != nil && w.state[v].taintedAt(e.Pos())
	case *ast.ParenExpr:
		return w.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X)
	case *ast.BinaryExpr:
		return w.taintedExpr(e.X) || w.taintedExpr(e.Y)
	case *ast.IndexExpr:
		if isByteSlice(w.pass.TypesInfo, e.X) {
			return true
		}
		return w.taintedExpr(e.X)
	case *ast.CallExpr:
		// Conversions pass taint through: int(n), uint64(blob[1]).
		if tv, ok := w.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.taintedExpr(e.Args[0])
		}
		return w.isWireRead(e)
	}
	return false
}

// isWireRead reports whether call decodes an integer from wire bytes:
// the binary.ByteOrder fixed-width reads, binary varint readers, or a
// local read* helper returning an integer.
func (w *wireAllocWalker) isWireRead(call *ast.CallExpr) bool {
	sel, _ := call.Fun.(*ast.SelectorExpr)
	var obj types.Object
	if sel != nil {
		obj = usedObject(w.pass.TypesInfo, sel.Sel)
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		obj = usedObject(w.pass.TypesInfo, id)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64", "ReadUvarint", "ReadVarint":
			return true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if isWireReader(sig.Recv()) {
		// The fixed-width reads hand back what the peer wrote; Count and
		// Ints have already held it against the remaining payload.
		switch fn.Name() {
		case "U8", "U16", "U32", "U64":
			return true
		}
		return false
	}
	if !readHelperName.MatchString(fn.Name()) {
		return false
	}
	// A read helper taints only integer results (readString does not).
	for i := 0; i < sig.Results().Len(); i++ {
		if isInteger(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// isWireReader reports whether recv is the receiver of a method of
// internal/wire's record Reader.
func isWireReader(recv *types.Var) bool {
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Reader" && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "wire"
}

func (w *wireAllocWalker) objOf(id *ast.Ident) *types.Var {
	if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	return nil
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
