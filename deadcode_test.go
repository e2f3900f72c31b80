package frugal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are the exported names in internal/ and cmd/ that no non-test
// code references but that stay on purpose. Each entry is
// "import/path.Name" (or "import/path.Type.Method") with its reason; the
// declaration's doc comment says the same.
var keptExports = map[string]string{
	"frugal/internal/cache.Meta.Contains":    "test observation hook: presence without moving the hit and frequency counters",
	"frugal/internal/runtime.Host.TierStats": "test observation hook: ckpt and serve tests see tier movement on a bare Host",
	"frugal/internal/shard.RemoteStore.Ping": "client side of the wire protocol's ping op, for health checks",
	"frugal/internal/shard.ClientStats.Op":   "per-op read side of the client's wire accounting",
}

// stdlibMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, net/http), so no call site in the
// module names them.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// exportDecl is one exported package-level function, method, type, constant
// or variable.
type exportDecl struct {
	pkg, recv, name string
	pos             token.Position
}

func (d exportDecl) id() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// TestNoUnusedExports fails on any exported name declared under internal/
// or cmd/ that no non-test Go in the module or in e2ebench/ references,
// unless keptExports names it. The scan is by name: a top-level name counts
// as used when its package refers to it or another file selects it through
// the package's import; a method counts as used when any selector, or any
// interface declared in the scanned code, names it.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportDecl
	pkgRefs := map[string]bool{} // "path.Name" referenced as a package-level name
	selRefs := map[string]bool{} // any ".Name" selector or interface method
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "frugal"
		if dir != "." {
			pkg = path.Join("frugal", dir)
		}
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			decls = append(decls, exportsOf(fset, f, pkg)...)
		}
		collectRefs(f, pkg, pkgRefs, selRefs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("scan found no exported declarations; is the working directory the module root?")
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		used := pkgRefs[d.pkg+"."+d.name]
		if d.recv != "" {
			used = selRefs[d.name] || stdlibMethods[d.name]
		}
		seen[d.id()] = true
		if used {
			if _, kept := keptExports[d.id()]; kept {
				t.Errorf("%s is on keptExports but has a non-test caller; drop the entry", d.id())
			}
			continue
		}
		if _, kept := keptExports[d.id()]; !kept {
			unused = append(unused, d.pos.String()+": "+d.id())
		}
	}
	for id := range keptExports {
		if !seen[id] {
			t.Errorf("keptExports names %s, which is not declared", id)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced by no non-test code: %s", u)
	}
}

// exportsOf lists f's exported package-level declarations, including
// methods on exported types.
func exportsOf(fset *token.FileSet, f *ast.File, pkg string) []exportDecl {
	var out []exportDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			recv := ""
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv = recvName(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
			}
			out = append(out, exportDecl{pkg: pkg, recv: recv, name: d.Name.Name, pos: fset.Position(d.Pos())})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, exportDecl{pkg: pkg, name: s.Name.Name, pos: fset.Position(s.Pos())})
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, exportDecl{pkg: pkg, name: n.Name, pos: fset.Position(n.Pos())})
						}
					}
				}
			}
		}
	}
	return out
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// collectRefs records the names f refers to: bare identifiers as names of
// f's own package, selectors on an import as names of that package, and
// every selector and interface method name for the method check.
func collectRefs(f *ast.File, pkg string, pkgRefs, selRefs map[string]bool) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	declared := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declared[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n] = true
					}
				}
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			selRefs[x.Sel.Name] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					pkgRefs[p+"."+x.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(x.X, func(m ast.Node) bool { return visit(m) })
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					selRefs[name.Name] = true
				}
			}
		case *ast.Ident:
			if !declared[x] {
				pkgRefs[pkg+"."+x.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
