package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hotpath analyzer mechanizes PR 6's instrumentation discipline:
// the per-gate simulation kernels carry a measured <3% observability
// budget precisely because nothing allocates or indirects inside them.
// Within a declared list of kernel functions in internal/sim,
// internal/faultsim, internal/atpg and internal/slicing it forbids
// closure creation, map operations, fmt use and interface-dispatched
// calls anywhere, and obs calls inside loops (per-call aggregate
// flushes after the loop are the blessed pattern; per-gate counter
// bumps are the regression to catch).

// hotSpec declares a package's hot functions by exact name and prefix.
type hotSpec struct {
	exact  map[string]bool
	prefix []string
}

// hotFuncs is the declared kernel list, keyed by effective package
// path. Only production files are analyzed: the interpreted
// differential oracles live in _test.go files and are not kernels.
var hotFuncs = map[string]hotSpec{
	"rescue/internal/sim": {
		// Names match methods of any receiver: Run covers the word and
		// wide full passes (Packed.Run, PackedBlock.Run) and LoadBlock
		// both block loaders, which stage a packed set's words before
		// every good pass. SetWord is the store of the per-gate steps of
		// slicing and PODEM.
		exact: map[string]bool{
			"Run": true, "RunWithFault": true, "LoadBlock": true, "SetWord": true,
		},
		// runConeEval covers both the word and wide cone loops
		// (runConeEval, runConeEvalBlock); evalOp covers the word and
		// block evaluators (evalOpW/B and the *Vals and *Faulted
		// forms); EvalGate covers the single-gate steps of PODEM and
		// slicing (Packed.EvalGate and EvalGateFaulted).
		prefix: []string{"RunCone", "EvalGate", "evalOp", "runConeEval"},
	},
	"rescue/internal/faultsim": {
		// The session's per-chunk stages are kernels end to end: the
		// chunk loop (SimulatePacked, and Simulate, which packs its
		// vectors and enters it) and the detection recorder run once per
		// pattern chunk. The time-frame engine's per-cycle step and
		// latch run once per clock cycle of every injection. The packed
		// pattern generator's word loop and the stream it draws from run
		// once per pattern bit.
		exact: map[string]bool{
			"Simulate": true, "SimulatePacked": true, "simulateChunk": true,
			"recordDetection": true, "stepFrame": true, "latch": true,
			"fillBlock": true, "take": true, "advance": true,
		},
		prefix: []string{"RunCone"},
	},
	"rescue/internal/atpg": {
		// PODEM's per-decision work: event-driven implication (imply,
		// its event loop and the two enqueues), the D-frontier walk
		// (scanFrontier), the X-path search and the state
		// classification.
		exact: map[string]bool{
			"imply": true, "propagate": true, "enqueue": true, "enqueueFanout": true,
			"scanFrontier": true, "xPathExists": true, "state": true,
		},
	},
	"rescue/internal/slicing": {
		// The word-valued overlay's per-fault work in every block: the
		// probe, sweep and settle sequence, each pass's level-bucket
		// drain and enqueue, the restore walk, and the word blend and
		// compare.
		exact: map[string]bool{
			"run": true, "inject": true, "enqueueFanout": true,
			"restore": true, "blend": true, "differ": true,
		},
	},
}

// HotPath forbids allocation, indirection and per-gate instrumentation
// inside the declared simulation kernel functions.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "kernel hot loops stay zero-alloc, map-free and observation-free",
	Why:  "the per-gate loops carry PR 6's <3% instrumentation budget; allocation or dispatch inside them regresses ns/gate-eval",
	Run:  runHotPath,
}

func runHotPath(p *Package) []Finding {
	spec, hot := hotFuncs[p.EffectivePath()]
	if !hot {
		return nil
	}
	var fs []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !spec.matches(fd.Name.Name) {
				continue
			}
			fs = append(fs, p.checkHotFunc(fd)...)
		}
	}
	return fs
}

func (s hotSpec) matches(name string) bool {
	if s.exact[name] {
		return true
	}
	for _, pre := range s.prefix {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func (p *Package) checkHotFunc(fd *ast.FuncDecl) []Finding {
	var fs []Finding
	name := fd.Name.Name
	report := func(pos token.Pos, msg string) {
		fs = append(fs, Finding{Pos: p.position(pos), Analyzer: "hotpath",
			Message: msg + " in kernel function " + name})
	}
	loops := loopSpans(fd.Body)
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l[0] <= pos && pos < l[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "closure allocation")
		case *ast.RangeStmt:
			if isMap(p.Info.TypeOf(x.X)) {
				report(x.Pos(), "map iteration")
			}
		case *ast.IndexExpr:
			if isMap(p.Info.TypeOf(x.X)) {
				report(x.Pos(), "map access")
			}
		case *ast.CompositeLit:
			if isMap(p.Info.TypeOf(x)) {
				report(x.Pos(), "map literal")
			}
		case *ast.SelectorExpr:
			if p.importedPkg(identOf(x.X)) == "fmt" {
				report(x.Pos(), "fmt use")
			}
		case *ast.CallExpr:
			fs = append(fs, p.checkHotCall(x, name, inLoop)...)
		}
		return true
	})
	return fs
}

func (p *Package) checkHotCall(call *ast.CallExpr, name string, inLoop func(token.Pos) bool) []Finding {
	var fs []Finding
	report := func(msg, why string) {
		fs = append(fs, Finding{Pos: p.position(call.Pos()), Analyzer: "hotpath",
			Message: msg + " in kernel function " + name, Why: why})
	}
	// make(map[...]...) and delete(...) are map operations too; any
	// other make, and append through session/result state, are heap
	// traffic the zero-alloc Simulate contract forbids.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
			switch {
			case id.Name == "delete":
				report("map delete", "")
			case id.Name == "make" && len(call.Args) > 0 && isMap(p.Info.TypeOf(call.Args[0])):
				report("map allocation", "")
			case id.Name == "make":
				report("slice/channel allocation",
					"kernels reuse arenas sized at construction (NewSession, ensureWide); a make here allocates per call")
			case id.Name == "append" && len(call.Args) > 0 && isEscapingAppendTarget(call.Args[0]):
				report("append to escaping state",
					"appending through a field or result grows the backing array on the hot path; store by index into a pre-sized arena (cf. Session.recordDetection)")
			}
		}
		return fs
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return fs
	}
	if p.calleePkg(call) == "rescue/internal/obs" && inLoop(call.Pos()) {
		report("obs call inside a per-gate loop",
			"flush aggregates once per call after the loop (cf. Session.Simulate); per-gate atomics blow the overhead budget")
	}
	if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if recv := s.Recv(); recv != nil && types.IsInterface(recv) && !isTypeParam(recv) {
			report("interface-dispatched call "+sel.Sel.Name,
				"dynamic dispatch defeats inlining in the per-gate loop; use a concrete type or a type parameter")
		}
	}
	return fs
}

// isEscapingAppendTarget reports whether an append's first argument
// reaches state that outlives the call: a selector (struct field,
// including pointer-receiver session state and result-struct fields) or
// an index into one. Appends to plain locals stay allowed — they don't
// grow caller-visible backing.
func isEscapingAppendTarget(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// loopSpans returns the [pos, end) span of every for/range body in the
// function.
func loopSpans(body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			spans = append(spans, [2]token.Pos{x.Body.Pos(), x.Body.End()})
		case *ast.RangeStmt:
			spans = append(spans, [2]token.Pos{x.Body.Pos(), x.Body.End()})
		}
		return true
	})
	return spans
}
