// Package unsafecheck keeps raw memory out of the module and fences the
// vmem page lifecycle:
//
//   - Confinement: no package outside internal/analyzers imports unsafe
//     or touches reflect's SliceHeader/StringHeader. Rewiring is a
//     page-table swap over ordinary slices (internal/vmem), so the
//     product needs neither.
//
//   - Page lifecycle: a slice obtained from a vmem object (Page, Slots,
//     AcquireSpare, AcquireSpares) is a window onto virtual memory that
//     Swap may rewire to different physical pages. Such a slice must
//     not be used after a Swap on the same vmem object — except as an
//     argument to Swap or ReleaseSpare, which is exactly the
//     fill-then-swap idiom of the rewired rebalance paths. Deriving a
//     fresh slice after the Swap is, of course, fine.
//
// The lifecycle scan is linear per function (source order); state is
// keyed by variable object and owning expression, so a.keys and a.vals
// pages invalidate independently.
package unsafecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"rma/internal/analyzers/rig"
)

// Analyzer is the unsafecheck analysis.
var Analyzer = &rig.Analyzer{
	Name: "unsafecheck",
	Doc:  "keep unsafe out of the module and enforce the page fill-then-swap lifecycle",
	Run:  run,
}

// derivingMethods return page slices tied to the receiver's mapping.
var derivingMethods = map[string]bool{
	"Page": true, "Slots": true, "AcquireSpare": true, "AcquireSpares": true,
}

func run(pass *rig.Pass) error {
	for _, pkg := range pass.Module.Sorted {
		for _, file := range pkg.Files {
			checkConfinement(pass, pkg, file)
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					(&fnChecker{pass: pass, pkg: pkg,
						derived: make(map[types.Object]string),
						stale:   make(map[types.Object]bool),
					}).check(fd)
				}
			}
		}
	}
	return nil
}

func checkConfinement(pass *rig.Pass, pkg *rig.Package, file *ast.File) {
	if strings.Contains(pkg.Path, "internal/analyzers") {
		return
	}
	for _, imp := range file.Imports {
		if imp.Path.Value == `"unsafe"` {
			pass.Reportf(imp.Pos(),
				"unsafe is not allowed outside internal/analyzers (importing package %s)", pkg.Path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj, ok := pkg.Info.Uses[sel.Sel].(*types.TypeName); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "reflect" &&
			(obj.Name() == "SliceHeader" || obj.Name() == "StringHeader") {
			pass.Reportf(sel.Pos(),
				"reflect.%s is not allowed outside internal/analyzers", obj.Name())
		}
		return true
	})
}

// fnChecker runs the page-lifecycle scan over one function.
type fnChecker struct {
	pass *rig.Pass
	pkg  *rig.Package
	// derived maps a variable to the vmem owner expression its page
	// slice came from; stale marks those invalidated by a Swap.
	derived map[types.Object]string
	stale   map[types.Object]bool
}

func (c *fnChecker) check(fd *ast.FuncDecl) {
	c.walkNode(fd.Body)
}

// vmemReceiver returns the printed receiver expression of a method call
// on a vmem-package type, or "" when the call is something else.
func (c *fnChecker) vmemReceiver(call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	t := c.typeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/vmem") {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

func (c *fnChecker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// walkNode traverses in source order, intercepting assignments (to
// record derivations) and Swap/ReleaseSpare calls (to exempt their
// arguments and invalidate derived slices).
func (c *fnChecker) walkNode(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
			return false
		case *ast.CallExpr:
			return c.call(n)
		case *ast.Ident:
			c.use(n)
		}
		return true
	})
}

func (c *fnChecker) assign(as *ast.AssignStmt) {
	for _, r := range as.Rhs {
		c.walkNode(r)
	}
	// Pair LHS with RHS in the 1:1 form; the multi-value form
	// (v, err := p.AcquireSpares(n)) pairs lhs[0] with the one call.
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			c.walkNode(lhs) // e.g. x.f = ... — scan for stale uses
			continue
		}
		if id.Name == "_" {
			continue
		}
		obj := c.pkg.Info.Defs[id]
		if obj == nil {
			obj = c.pkg.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		switch {
		case len(as.Rhs) == len(as.Lhs):
			rhs = as.Rhs[i]
		case len(as.Rhs) == 1 && i == 0:
			rhs = as.Rhs[0]
		}
		// Any rebinding clears old page-slice state for the variable.
		delete(c.derived, obj)
		delete(c.stale, obj)
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if owner, m := c.vmemReceiver(call); owner != "" && derivingMethods[m] {
				c.derived[obj] = owner
			}
		}
	}
}

func (c *fnChecker) call(call *ast.CallExpr) bool {
	owner, m := c.vmemReceiver(call)
	if owner == "" {
		return true
	}
	switch m {
	case "Swap":
		// Arguments are the fill-then-swap handoff: exempt from the
		// stale check, and the swap invalidates everything derived
		// from this owner.
		c.walkReceiverOnly(call)
		for obj, o := range c.derived {
			if o == owner {
				c.stale[obj] = true
			}
		}
		return false
	case "ReleaseSpare":
		c.walkReceiverOnly(call)
		return false
	}
	return true
}

// walkReceiverOnly scans the receiver chain of a Swap/ReleaseSpare call
// but not its arguments.
func (c *fnChecker) walkReceiverOnly(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		c.walkNode(sel.X)
	}
}

func (c *fnChecker) use(id *ast.Ident) {
	obj := c.pkg.Info.Uses[id]
	if obj == nil || !c.stale[obj] {
		return
	}
	c.pass.Reportf(id.Pos(),
		"page slice %s retained across %s.Swap: rewiring may have remapped it (re-derive with Page/Slots after the swap)",
		id.Name, c.derived[obj])
}
