package lint

import (
	"go/ast"
	"go/types"
)

// GoroLeak checks that every goroutine spawned by the long-running
// layers — the cluster engine pool, the hetmemd serve loop, and the
// cmd/* binaries — carries reachable join or completion evidence:
// a WaitGroup.Done, a channel send or close, a Cond.Signal/Broadcast,
// or a drain loop (range over a channel), either lexically in the
// spawned function or anywhere down its statically-resolved call
// chain (via the facts layer's Signals fixpoint).
//
// A goroutine with none of these has no way to tell anyone it
// finished and nothing that terminates it: in a daemon that is a leak
// per request, and in the parallel DES it desynchronises the barrier
// protocol. Simulation processes and test helpers are out of scope:
// internal/sim runs its processes as iter.Pull coroutines, which
// Engine.Close unwinds, and has no go statement of its own.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "require spawned goroutines to have reachable join/completion evidence (WaitGroup, channel, Cond)",
	Match: func(rel string) bool {
		return matchPrefix(rel, "internal/cluster") ||
			matchPrefix(rel, "internal/serve") ||
			matchPrefix(rel, "cmd")
	},
	NeedsFacts: true,
	Run:        runGoroLeak,
}

func runGoroLeak(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				if !litJoins(p, fl.Body) {
					p.Reportf(gs.Pos(),
						"goroutine has no reachable join or completion signal (WaitGroup.Done, channel send/close, Cond.Signal/Broadcast, or drain loop); it can leak")
				}
				return true
			}
			callee := staticCallee(p.Info, gs.Call)
			if callee != nil && p.Facts.Signals(callee) {
				return true
			}
			p.Reportf(gs.Pos(),
				"goroutine %s has no reachable join or completion signal down its call chain; it can leak", exprString(gs.Call.Fun))
			return true
		})
	}
}

// litJoins reports whether a go func(){...}() body contains join or
// completion evidence, looking through nested closures and into
// statically-resolved callees via the facts layer.
func litJoins(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.RangeStmt:
			// Draining a channel until close is a lifecycle: the spawner
			// terminates the goroutine by closing the channel.
			if t := p.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					return false
				}
			}
			for _, name := range [...]string{"Done", "Signal", "Broadcast"} {
				if recv := selectorCall(n, name); recv != nil {
					t := p.TypeOf(recv)
					if isNamedType(t, "sync", "WaitGroup") || isNamedType(t, "internal/sim", "WaitGroup") ||
						isNamedType(t, "sync", "Cond") || isNamedType(t, "internal/sim", "Cond") {
						found = true
						return false
					}
				}
			}
			if callee := staticCallee(p.Info, n); callee != nil && p.Facts.Signals(callee) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
