// Package wireguard defines an analyzer that cross-references every wire
// frame type against the three defenses the protocol relies on: a decoder
// whose allocations are count-guarded, a fuzz seed so FuzzDecode explores the
// real format, and a round-trip test.
//
// The wire format is hand-rolled (paper §3: binary sessions over TCP), so
// nothing regenerates decoders from a schema — a new frame type is a struct
// with its encoder, a decoder and a fuzz seed, written by hand and free to
// drift apart. This analyzer makes the drift a vet failure instead of a prod
// incident.
package wireguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/tools/analysis"
)

// Analyzer cross-references wire frame types against decoders, fuzz seeds,
// and round-trip tests.
var Analyzer = &analysis.Analyzer{
	Name: "wireguard",
	Doc: `checks every wire frame type has a guarded decoder, a fuzz seed, and a round-trip test

The analyzer activates in packages declaring a MsgType type and Msg*
constants of that type (internal/wire). For every frame constant it verifies:

  - a non-test function constructs a decoder and references the constant
    (the frame can be parsed); frames whose encoder is a bare
    []byte{byte(C)} are bodyless and exempt
  - the fuzz corpus covers the frame: some function reachable from a Fuzz*
    target either encodes it (byte(C)) or names the constant in a test file
  - some Test* function reaches both an encoder and a decoder of the frame
    (a round-trip); bodyless frames are exempt

Independently, any non-test function that reads through the decoder and
calls make with a non-constant size must get that size from the decoder's
count helper — the one place a decoded count is checked against the bytes
left in the frame, which stops a 4-byte header from requesting a
multi-gigabyte allocation. Suppress with
//shadowfax:ignore wireguard <reason> on the constant's declaration line or
the allocation site.`,
	Run: run,
}

// funcInfo is the per-function index the frame checks run against.
type funcInfo struct {
	fn        *types.Func
	testFile  bool
	encRefs   map[*types.Const]bool // constants converted via byte(C)
	plainRefs map[*types.Const]bool // constants referenced outside byte()
	dynEnc    bool                  // converts a non-constant MsgType to byte
	usesDec   bool                  // constructs or holds the decoder type
	counts    bool                  // calls (*decoder).count
	rawMakes  []token.Pos           // make calls with non-constant sizes
	bodyless  *types.Const          // body is exactly `return []byte{byte(C)}`
	callees   []*types.Func
}

func run(pass *analysis.Pass) (any, error) {
	scope := pass.Pkg.Scope()
	msgType, _ := scope.Lookup("MsgType").(*types.TypeName)
	decType, _ := scope.Lookup("decoder").(*types.TypeName)
	if msgType == nil {
		return nil, nil // not a wire-format package
	}

	// Frame constants and their declaration sites.
	frames := map[*types.Const]token.Pos{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if ok && c.Type() == msgType.Type() && strings.HasPrefix(c.Name(), "Msg") {
						frames[c] = name.Pos()
					}
				}
			}
		}
	}
	if len(frames) == 0 {
		return nil, nil
	}

	// The frame checks cross-reference the fuzz corpus and round-trip tests,
	// so they only make sense on the test variant of the package (under
	// `go vet -vettool` the plain unit has no _test.go files in scope; the
	// shadowfax-vet standalone driver always merges them). The count-guard
	// sweep below needs only shipped code and always runs.
	hasTests := false
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			hasTests = true
		}
	}

	infos := index(pass, msgType, decType)

	// Encoders and decoders per frame, from non-test code.
	enc := map[*types.Const][]*funcInfo{}
	dec := map[*types.Const][]*funcInfo{}
	bodyless := map[*types.Const]bool{}
	for _, fi := range infos {
		if fi.testFile {
			continue
		}
		for c := range fi.encRefs {
			enc[c] = append(enc[c], fi)
		}
		if fi.usesDec {
			for c := range fi.plainRefs {
				dec[c] = append(dec[c], fi)
			}
		}
		if fi.bodyless != nil {
			bodyless[fi.bodyless] = true
		}
	}

	// Count-guard sweep: decoder functions that size allocations from the
	// frame must read the size through count().
	for _, fi := range infos {
		if fi.testFile || !fi.usesDec || fi.counts {
			continue
		}
		for _, pos := range fi.rawMakes {
			pass.Reportf(pos, "decoder %s allocates with a size read from the frame but never calls "+
				"count(): a corrupt or hostile length prefix becomes an arbitrary-size allocation — "+
				"read the element count with d.count(minElemBytes) (see DecodeRequestBatch) or "+
				"suppress with //shadowfax:ignore wireguard <reason>", fi.fn.Name())
		}
	}

	// Reachability: everything transitively called from Fuzz* targets, and
	// per-Test* sets for round-trip checks.
	byFn := map[*types.Func]*funcInfo{}
	for _, fi := range infos {
		byFn[fi.fn] = fi
	}
	var fuzzRoots []*types.Func
	var testRoots []*types.Func
	for _, fi := range infos {
		if !fi.testFile || fi.fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fi.fn.Name(), "Fuzz"):
			fuzzRoots = append(fuzzRoots, fi.fn)
		case strings.HasPrefix(fi.fn.Name(), "Test"):
			testRoots = append(testRoots, fi.fn)
		}
	}
	fuzzSet := reach(byFn, fuzzRoots...)

	seeded := func(c *types.Const) bool {
		for fn := range fuzzSet {
			fi := byFn[fn]
			if fi.encRefs[c] || (fi.testFile && fi.plainRefs[c]) {
				return true
			}
		}
		return false
	}
	roundTripped := func(c *types.Const) bool {
		for _, root := range testRoots {
			set := reach(byFn, root)
			encSide, decSide, dyn, named := false, false, false, false
			for fn := range set {
				fi := byFn[fn]
				if fi.encRefs[c] {
					encSide = true
				}
				if fi.dynEnc {
					dyn = true
				}
				if fi.testFile && fi.plainRefs[c] {
					named = true
				}
				if fi.usesDec && !fi.testFile && fi.plainRefs[c] {
					decSide = true
				}
			}
			if (encSide || (dyn && named)) && decSide {
				return true
			}
		}
		return false
	}

	if !hasTests {
		return nil, nil
	}
	for c, pos := range frames {
		if !bodyless[c] && len(dec[c]) == 0 {
			pass.Reportf(pos, "frame %s has no decoder: no non-test function constructs a decoder and "+
				"references the constant, so hostile %s bytes are only ever rejected by accident — "+
				"write Decode%s or suppress with //shadowfax:ignore wireguard <reason>",
				c.Name(), c.Name(), strings.TrimPrefix(c.Name(), "Msg"))
		}
		if !seeded(c) {
			pass.Reportf(pos, "frame %s has no fuzz seed: nothing reachable from a Fuzz target encodes "+
				"it, so FuzzDecode must rediscover the format byte-by-byte — add an encoding to "+
				"fuzzSeeds() or suppress with //shadowfax:ignore wireguard <reason>", c.Name())
		}
		if !bodyless[c] && !roundTripped(c) {
			pass.Reportf(pos, "frame %s has no round-trip test: no Test function reaches both an "+
				"encoder and a decoder of this frame — encode-decode equality is unchecked; add a "+
				"round-trip or suppress with //shadowfax:ignore wireguard <reason>", c.Name())
		}
	}
	return nil, nil
}

// index builds the per-function fact table.
func index(pass *analysis.Pass, msgType, decType *types.TypeName) []*funcInfo {
	decls := analysis.FuncDecls(pass)
	var infos []*funcInfo
	for fn, d := range decls {
		if d.Body == nil {
			continue
		}
		fi := &funcInfo{
			fn:        fn,
			encRefs:   map[*types.Const]bool{},
			plainRefs: map[*types.Const]bool{},
		}
		for _, f := range pass.Files {
			if f.Pos() <= d.Pos() && d.Pos() <= f.End() {
				fi.testFile = pass.IsTestFile(f)
			}
		}

		consumed := map[*ast.Ident]bool{}
		frameConst := func(e ast.Expr) (*types.Const, *ast.Ident) {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return nil, nil
			}
			if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && c.Type() == msgType.Type() {
				return c, id
			}
			return nil, nil
		}

		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// byte(...) conversions: encoder-side references.
				if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
						if c, id := frameConst(n.Args[0]); c != nil {
							fi.encRefs[c] = true
							consumed[id] = true
						} else if at := pass.TypesInfo.TypeOf(n.Args[0]); at == msgType.Type() {
							fi.dynEnc = true
						}
					}
					return true
				}
				if fun, ok := ast.Unparen(n.Fun).(*ast.Ident); ok &&
					pass.TypesInfo.Uses[fun] == types.Universe.Lookup("make") && len(n.Args) >= 2 {
					if tv, ok := pass.TypesInfo.Types[n.Args[1]]; !ok || tv.Value == nil {
						fi.rawMakes = append(fi.rawMakes, n.Pos())
					}
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "count" {
					if decType != nil && namedIs(pass.TypesInfo.TypeOf(sel.X), decType) {
						fi.counts = true
					}
				}
				if callee := analysis.FuncOrigin(analysis.StaticCallee(pass.TypesInfo, n)); callee != nil &&
					callee.Pkg() == pass.Pkg {
					fi.callees = append(fi.callees, callee)
				}
			case *ast.Ident:
				if decType != nil {
					if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && namedIs(v.Type(), decType) {
						fi.usesDec = true
					}
					if tn, ok := pass.TypesInfo.Uses[n].(*types.TypeName); ok && tn == decType {
						fi.usesDec = true
					}
				}
			}
			return true
		})

		// Plain (non-byte()) constant references.
		ast.Inspect(d.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || consumed[id] {
				return true
			}
			if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && c.Type() == msgType.Type() {
				fi.plainRefs[c] = true
			}
			return true
		})

		fi.bodyless = bodylessConst(fi, d)
		infos = append(infos, fi)
	}
	return infos
}

// bodylessConst reports the frame constant C when d's body is exactly
// `return []byte{byte(C)}` — a header-only request frame.
func bodylessConst(fi *funcInfo, d *ast.FuncDecl) *types.Const {
	if len(d.Body.List) != 1 || len(fi.encRefs) != 1 {
		return nil
	}
	ret, ok := d.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	cl, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 1 {
		return nil
	}
	for c := range fi.encRefs {
		return c
	}
	return nil
}

// reach returns every function transitively reachable from roots through
// same-package static calls.
func reach(byFn map[*types.Func]*funcInfo, roots ...*types.Func) map[*types.Func]bool {
	set := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if set[fn] || byFn[fn] == nil {
			return
		}
		set[fn] = true
		for _, callee := range byFn[fn].callees {
			visit(callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return set
}

// namedIs reports whether t is tn's type, stripping one pointer.
func namedIs(t types.Type, tn *types.TypeName) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == tn
}
