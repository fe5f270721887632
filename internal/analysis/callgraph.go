package analysis

// The interprocedural layer: a module-wide call graph over the loaded
// packages, so analyzers can reason about what a function *transitively*
// does — "this call eventually issues a collective", "this goroutine's
// body signals a WaitGroup" — instead of being limited to one function
// body at a time. The graph is deliberately syntactic and cheap:
//
//   - Nodes are the module's declared functions and methods
//     (*types.Func identities are shared across packages because the
//     loader type-checks the whole module with one FileSet and one
//     importer, so cross-package edges need no name mangling).
//   - An edge caller→callee exists for every static call in the
//     caller's body. Calls inside function literals are attributed to
//     the enclosing declaration: for reachability ("does running this
//     function make that call possible") that is the useful answer.
//   - Dynamic calls (function values, interface methods) resolve to
//     the declared *types.Func go/types reports — an interface
//     method's callees are not expanded to implementations. Analyzers
//     that need soundness across interfaces match the interface
//     method itself.
//
// Build order and all query results are deterministic: nodes follow
// package/file/declaration order, and Reachers runs a BFS seeded and
// expanded in that order, so witness paths are stable across runs.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A CallEdge is one static call site: the resolved callee and where the
// call appears in the caller.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

// A FuncNode is one declared function or method of the module, with its
// syntax, its package (for position and type information), and its
// outgoing call edges in source order.
type FuncNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CallEdge
}

// A CallGraph is the module-wide static call graph.
type CallGraph struct {
	nodes   map[*types.Func]*FuncNode
	callers map[*types.Func][]*FuncNode
	order   []*FuncNode
}

// BuildCallGraph constructs the call graph of pkgs. Functions without
// bodies (external declarations) get no node; calls to them still
// appear as edges.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:   map[*types.Func]*FuncNode{},
		callers: map[*types.Func][]*FuncNode{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fn, Pkg: pkg}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeFunc(pkg.Info, call); callee != nil {
						node.Calls = append(node.Calls, CallEdge{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
				g.nodes[obj] = node
				g.order = append(g.order, node)
			}
		}
	}
	for _, n := range g.order {
		seen := map[*types.Func]bool{}
		for _, e := range n.Calls {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				g.callers[e.Callee] = append(g.callers[e.Callee], n)
			}
		}
	}
	return g
}

// Node returns fn's graph node, or nil when fn has no body in the
// module (stdlib, interface methods, external linkage).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// Funcs returns every node in deterministic package/file/decl order.
func (g *CallGraph) Funcs() []*FuncNode { return g.order }

// ReachInfo is one step of a reachability witness: the next callee on a
// path from the function toward Target, the matched function.
type ReachInfo struct {
	Next   *types.Func
	Target *types.Func
}

// A Reach is the result of a Reachers query: for every function that
// can transitively make a matching call, one witness step.
type Reach struct {
	info map[*types.Func]ReachInfo
}

// Reachers computes, by reverse BFS over the call graph, the set of
// functions from which a call matching match is reachable. A function
// that calls a matching callee directly is a reacher; so is anything
// that transitively calls a reacher. match is consulted on callees
// (which may be external to the module, e.g. methods of an imported
// package).
func (g *CallGraph) Reachers(match func(*types.Func) bool) *Reach {
	r := &Reach{info: map[*types.Func]ReachInfo{}}
	var queue []*types.Func
	for _, n := range g.order {
		for _, e := range n.Calls {
			if match(e.Callee) {
				if _, ok := r.info[n.Fn]; !ok {
					r.info[n.Fn] = ReachInfo{Next: e.Callee, Target: e.Callee}
					queue = append(queue, n.Fn)
				}
				break
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range g.callers[fn] {
			if _, ok := r.info[caller.Fn]; ok {
				continue
			}
			r.info[caller.Fn] = ReachInfo{Next: fn, Target: r.info[fn].Target}
			queue = append(queue, caller.Fn)
		}
	}
	return r
}

// Reaches reports whether a matching call is reachable from fn.
func (r *Reach) Reaches(fn *types.Func) bool {
	_, ok := r.info[fn]
	return ok
}

// Get returns fn's witness step.
func (r *Reach) Get(fn *types.Func) (ReachInfo, bool) {
	info, ok := r.info[fn]
	return info, ok
}

// Path returns the witness call chain from fn (exclusive) down to the
// matched target (inclusive), as function names — e.g. for
// computeStep→syncGradients→RingAllReduceData it returns
// ["syncGradients", "RingAllReduceData"]. Empty when fn is not a reacher.
func (r *Reach) Path(fn *types.Func) []string {
	var out []string
	cur := fn
	for i := 0; i < len(r.info); i++ { // bounded by graph size; guards witness cycles
		info, ok := r.info[cur]
		if !ok {
			break
		}
		out = append(out, info.Next.Name())
		if info.Next == info.Target {
			break
		}
		cur = info.Next
	}
	return out
}
