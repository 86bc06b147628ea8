package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllowed lists functions that no non-test code calls but that the
// tests of several other packages use as fixtures, so they cannot move
// into one package's _test.go file. Keys are "dir.Func" or
// "dir.Recv.Method".
var deadAllowed = map[string]string{
	"internal/field.Constant":        "flat field for curvature, core, mobile, sim and surface tests",
	"internal/field.Plane":           "linear field for curvature, sim and surface tests",
	"internal/field.Quadratic":       "known-curvature field for field and curvature tests",
	"internal/geom.TriArea":          "triangle-area check of geom and delaunay tests",
	"internal/surface.TIN.Triangles": "triangle list for surface tests; keeps delaunay's Triangles, which delaunay tests read, alive",
}

// stdMethods are methods that the standard library calls through its own
// interfaces or by reflection, so no module code names them.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Set": true, // flag.Value
}

// deadFunc is one function or method declaration of the scan.
type deadFunc struct {
	file   string // slash path from the module root
	name   string // bare name, the unit of liveness
	qual   string // name, or Recv.name for a method
	method bool
	refs   map[string]bool // every identifier in the body
	root   bool
}

// TestNoDeadFunctions fails for every function or method that no live
// non-test code of the module (perfbench included) names. Matching is by
// bare name and repeats until nothing more dies, so a function called only
// by dead functions is dead too. main, init, the repro.go facade, methods
// of interfaces declared in the module and standard-library interface
// methods are roots.
func TestNoDeadFunctions(t *testing.T) {
	fset := token.NewFileSet()
	var funcs []*deadFunc
	ifaceMethods := map[string]bool{}
	rootRefs := map[string]bool{} // names in package-level var and const values
	allowSeen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.ValueSpec:
						for _, v := range x.Values {
							collectIdents(v, rootRefs)
						}
					case *ast.InterfaceType:
						for _, m := range x.Methods.List {
							for _, id := range m.Names {
								ifaceMethods[id.Name] = true
							}
						}
					}
					return true
				})
				continue
			}
			fn := &deadFunc{file: rel, name: fd.Name.Name, qual: fd.Name.Name, refs: map[string]bool{}}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				fn.qual = recvName(fd.Recv.List[0].Type) + "." + fn.name
				fn.method = true
				fn.root = stdMethods[fn.name]
			} else {
				fn.root = fn.name == "main" || fn.name == "init"
			}
			if rel == "repro.go" {
				fn.root = true
			}
			if key := filepath.ToSlash(filepath.Dir(path)) + "." + fn.qual; deadAllowed[key] != "" {
				fn.root = true
				allowSeen[key] = true
			}
			if fd.Body != nil {
				collectIdents(fd.Body, fn.refs)
			}
			funcs = append(funcs, fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range deadAllowed {
		if !allowSeen[key] {
			t.Errorf("allowlist entry %s matches no declaration", key)
		}
	}
	for _, fn := range funcs {
		if fn.method && ifaceMethods[fn.name] {
			fn.root = true
		}
	}

	dead := map[*deadFunc]bool{}
	for changed := true; changed; {
		changed = false
		live := map[string]bool{}
		for n := range rootRefs {
			live[n] = true
		}
		for _, fn := range funcs {
			if dead[fn] {
				continue
			}
			for n := range fn.refs {
				// Recursion, or a wrapper of a same-named function, keeps
				// the name alive only when the caller itself is a root.
				if n != fn.name || fn.root {
					live[n] = true
				}
			}
		}
		for _, fn := range funcs {
			if !dead[fn] && !fn.root && !live[fn.name] {
				dead[fn] = true
				changed = true
			}
		}
	}

	var out []string
	for fn := range dead {
		out = append(out, fn.file+": "+fn.qual)
	}
	sort.Strings(out)
	for _, line := range out {
		t.Error(line)
	}
	if len(out) > 0 {
		t.Logf("%d functions have no non-test caller: move test fixtures into a _test.go file, delete the rest", len(out))
	}
}

// collectIdents adds every identifier under n (including selector names)
// to names.
func collectIdents(n ast.Node, names map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
}

// recvName returns the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
