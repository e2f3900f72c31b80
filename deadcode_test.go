package frugal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are the names TestNoUnusedCode flags but that stay on purpose.
// Each entry is "import/path.Name" or "import/path.Type.Member" with the keep
// rule it meets; the declaration's doc comment gives the same reason. A name
// stays only when
//
//	(1) a test in another package observes behaviour through it that no
//	    production API exposes, and it adds no work per row, frame or step;
//	(2) it is the paper-ablation reference path a test compares against; or
//	(3) it is the client side of a wire op the server implements.
var keptExports = map[string]string{
	"frugal/internal/cache.Meta.Contains":        "(1) presence without moving the hit and frequency counters",
	"frugal/internal/lfht.Map.Segments":          "(1) p2f and pq tests see how their hash tables are sized",
	"frugal/internal/p2f.Stats.CoalescedFlushes": "(1) serve tests see a refresh storm coalesce onto shared flushes",
	"frugal/internal/shard.RemoteStore.Ping":     "(3) the client side of the ping op, for health checks",
}

// stdlibMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, net/http), so no call site in the
// scanned code names them.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestNoUnusedCode fails on any function, method, type, constant, package
// variable or struct field declared under internal/ or cmd/, or unexported in
// the root package, that no non-test Go in the module and no Go in e2ebench/
// uses, unless keptExports names it. See unusedCode for what counts as a use.
func TestNoUnusedCode(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	found, declared, err := unusedCode(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("scan found no declarations; is the working directory the module root?")
	}
	flagged := map[string]bool{}
	for _, f := range found {
		flagged[f.id] = true
		if _, kept := keptExports[f.id]; !kept {
			t.Errorf("used by no non-test code: %s: %s", f.pos, f.id)
		}
	}
	for id := range keptExports {
		switch {
		case !declared[id]:
			t.Errorf("keptExports names %s, which is not declared", id)
		case !flagged[id]:
			t.Errorf("%s is on keptExports but has a non-test use; drop the entry", id)
		}
	}
}

// A srcPkg is one package to type-check from source.
type srcPkg struct {
	path  string
	files []*ast.File
	// decls: its declarations are scanned (internal/, cmd/ and the root).
	decls bool
	// api: its exported names, and the exported members of the types its
	// exported aliases name, are public API and never flagged.
	api bool
}

// A finding is one declaration nothing uses.
type finding struct{ id, pos string }

// loadModule parses the module rooted at root, honouring build constraints.
// Non-test files count everywhere; a nested module (e2ebench/, which builds
// against this one but does not change with it) counts with its in-package
// tests.
func loadModule(fset *token.FileSet, root string) ([]*srcPkg, error) {
	rootMod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	type mod struct{ dir, path string }
	var mods []mod // innermost last
	var pkgs []*srcPkg
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		for len(mods) > 0 && !within(dir, mods[len(mods)-1].dir) {
			mods = mods[:len(mods)-1]
		}
		if p, err := modulePath(dir); err == nil {
			mods = append(mods, mod{dir, p})
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		m := mods[len(mods)-1]
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		ip := path.Join(m.path, filepath.ToSlash(rel))
		names := bp.GoFiles
		nested := m.path != rootMod
		if nested {
			names = append(names, bp.TestGoFiles...)
		}
		pkg := &srcPkg{path: ip}
		if !nested {
			relSlash := filepath.ToSlash(rel)
			pkg.api = relSlash == "."
			pkg.decls = pkg.api || strings.HasPrefix(relSlash, "internal/") || strings.HasPrefix(relSlash, "cmd/")
		}
		if pkg.files, err = parseFiles(fset, dir, names); err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	return pkgs, err
}

func within(dir, parent string) bool {
	rel, err := filepath.Rel(parent, dir)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, "../")
}

func modulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", dir)
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// stdImporter imports the standard library from compiler export data, located
// with one `go list -export` over every package the sources import.
func stdImporter(fset *token.FileSet, pkgs []*srcPkg) (types.Importer, error) {
	local := map[string]bool{}
	for _, p := range pkgs {
		local[p.path] = true
	}
	var paths []string
	seen := map[string]bool{"unsafe": true}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if !local[ip] && !seen[ip] {
					seen[ip] = true
					paths = append(paths, ip)
				}
			}
		}
	}
	var out bytes.Buffer
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if ip, file, ok := strings.Cut(sc.Text(), " "); ok && file != "" {
			export[ip] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := export[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", ip)
		}
		return os.Open(file)
	}), nil
}

// pkgImporter type-checks the source packages on demand, in import order,
// and defers everything else to std.
type pkgImporter struct {
	fset    *token.FileSet
	std     types.Importer
	info    *types.Info
	src     map[string]*srcPkg
	checked map[string]*types.Package
}

func (im *pkgImporter) Import(ip string) (*types.Package, error) {
	if p, ok := im.checked[ip]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p, nil
	}
	sp, ok := im.src[ip]
	if !ok {
		return im.std.Import(ip)
	}
	im.checked[ip] = nil
	conf := types.Config{Importer: im}
	tp, err := conf.Check(ip, im.fset, sp.files, im.info)
	if err != nil {
		return nil, err
	}
	im.checked[ip] = tp
	return tp, nil
}

// unusedCode type-checks pkgs and returns the scanned declarations that
// nothing in pkgs uses, sorted by id, with the ids of every scanned
// declaration. Objects are compared, not names; instantiated generics count
// as uses of their origin. These count as uses:
//   - any reference, except that assigning to a field, naming it as a
//     composite-literal key, or calling Add or Store on an atomic field and
//     dropping the result only writes it;
//   - for a method, a used interface method of the same name and identical
//     signature, or a name in stdlibMethods;
//   - for an embedded field, a selection promoted through it, or having
//     methods to promote (they may satisfy an interface);
//   - for a field, its struct being a map key or compared, or having a
//     json: tag on any field (encoding/json reads it).
//
// The exported API of an api package, and the exported members of the types
// its exported aliases name, are never flagged.
func unusedCode(fset *token.FileSet, pkgs []*srcPkg, std types.Importer) (found []finding, declared map[string]bool, err error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	im := &pkgImporter{fset: fset, std: std, info: info, src: map[string]*srcPkg{}, checked: map[string]*types.Package{}}
	for _, p := range pkgs {
		im.src[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.path); err != nil {
			return nil, nil, err
		}
	}

	// Candidates, with the "Type.Member" owner of fields and methods.
	owner := map[types.Object]string{}
	cands := map[types.Object]bool{}
	exempt := map[types.Object]bool{}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		if !p.decls {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				declCandidates(decl, p, info, owner, cands, used)
			}
		}
		if p.api {
			exemptAliased(im.checked[p.path], exempt)
		}
	}

	// Identifiers that only write the field they name, and comparisons,
	// which read every field of the compared structs.
	writes := map[*ast.Ident]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				markWrites(n, info, writes)
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					markFields(info.TypeOf(b.X), used, map[types.Type]bool{})
				}
				return true
			})
		}
	}
	for id, obj := range info.Uses {
		if !writes[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range info.Selections {
		markEmbedded(sel, used)
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			markFields(m.Key(), used, map[types.Type]bool{})
		}
	}
	var ifaceMethods []*types.Func
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}

	declared = map[string]bool{}
	for obj := range cands {
		id := obj.Pkg().Path() + "." + obj.Name()
		if o := owner[obj]; o != "" {
			id = obj.Pkg().Path() + "." + o + "." + obj.Name()
		}
		declared[id] = true
		if used[obj] || exempt[obj] || promotesMethods(obj) {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if stdlibMethods[fn.Name()] || implements(fn, ifaceMethods) {
				continue
			}
		}
		found = append(found, finding{id: id, pos: fset.Position(obj.Pos()).String()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id < found[j].id })
	return found, declared, nil
}

// declCandidates records decl's scanned objects in cands: every function,
// method, type, constant, variable, field and interface method, except main,
// init and blank names, and in an api package except exported ones. Fields
// of a struct with a json: tag are marked used.
func declCandidates(decl ast.Decl, p *srcPkg, info *types.Info, owner map[types.Object]string, cands, used map[types.Object]bool) {
	add := func(id *ast.Ident, own string) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" || (id.Name == "main" && obj.Pkg().Name() == "main") {
			return
		}
		if p.api && id.IsExported() {
			return
		}
		cands[obj] = true
		owner[obj] = own
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := ""
		if d.Recv != nil && len(d.Recv.List) == 1 {
			own = recvName(d.Recv.List[0].Type)
		}
		add(d.Name, own)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, n := range s.Names {
					add(n, "")
				}
			case *ast.TypeSpec:
				add(s.Name, "")
				ast.Inspect(s.Type, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.StructType:
						jsonTagged := false
						for _, fld := range x.Fields.List {
							if fld.Tag != nil {
								tag, _ := strconv.Unquote(fld.Tag.Value)
								if _, jsonTagged = reflect.StructTag(tag).Lookup("json"); jsonTagged {
									break
								}
							}
						}
						for _, fld := range x.Fields.List {
							for _, n := range fieldIdents(fld) {
								add(n, s.Name.Name)
								if jsonTagged {
									used[info.Defs[n]] = true
								}
							}
						}
					case *ast.InterfaceType:
						for _, m := range x.Methods.List {
							for _, n := range m.Names {
								add(n, s.Name.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// fieldIdents returns the identifiers fld declares; an embedded field's is
// its type's name.
func fieldIdents(fld *ast.Field) []*ast.Ident {
	if len(fld.Names) > 0 {
		return fld.Names
	}
	e := fld.Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return []*ast.Ident{x.Sel}
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return []*ast.Ident{x}
		default:
			return nil
		}
	}
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

// exemptAliased marks the exported fields and methods of the types pkg's
// exported aliases name: they are reachable through pkg's API.
func exemptAliased(pkg *types.Package, exempt map[types.Object]bool) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		named = named.Origin()
		for i := 0; i < named.NumMethods(); i++ {
			exempt[named.Method(i)] = true
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					exempt[u.Field(i)] = true
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				exempt[u.Method(i)] = true
			}
		}
	}
}

// markWrites records the field identifiers n only writes: assignment and
// increment targets, struct composite-literal keys, and the field under an
// atomic Add or Store whose result is dropped.
func markWrites(n ast.Node, info *types.Info, writes map[*ast.Ident]bool) {
	field := func(e ast.Expr) *ast.Ident {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return sel.Sel
			}
		}
		return nil
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if id := field(lhs); id != nil {
				writes[id] = true
			}
		}
	case *ast.IncDecStmt:
		if id := field(x.X); id != nil {
			writes[id] = true
		}
	case *ast.CompositeLit:
		if _, ok := info.TypeOf(x).Underlying().(*types.Struct); ok {
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && (fn.Name() == "Add" || fn.Name() == "Store") {
			if id := field(sel.X); id != nil {
				writes[id] = true
			}
		}
	}
}

// markEmbedded marks the embedded fields a promoted selection goes through.
func markEmbedded(sel *types.Selection, used map[types.Object]bool) {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		used[f.Origin()] = true
		t = f.Type()
	}
}

// markFields marks every field of t, and of the structs and arrays inside it,
// as read: a comparison or a map lookup reads all of them.
func markFields(t types.Type, used map[types.Object]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			used[u.Field(i).Origin()] = true
			markFields(u.Field(i).Type(), used, seen)
		}
	case *types.Array:
		markFields(u.Elem(), used, seen)
	}
}

// promotesMethods reports whether obj is an embedded field whose type has
// methods to promote.
func promotesMethods(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.Embedded() {
		return false
	}
	t := v.Type()
	if _, ptr := t.Underlying().(*types.Pointer); !ptr {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t).Len() > 0
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// implements reports whether fn has the name and signature of one of the
// used interface methods, so a call through the interface can reach it.
func implements(fn *types.Func, ifaceMethods []*types.Func) bool {
	if isInterfaceMethod(fn) {
		return false
	}
	for _, m := range ifaceMethods {
		if m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
			return true
		}
	}
	return false
}

// TestUnusedCodeRules runs the scan over a small module written to a
// temporary directory and checks each of its verdicts.
func TestUnusedCodeRules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n",
		"fix.go": `package fix

import "fix/internal/a"

// Opt's type is internal; its exported fields are API through the alias.
type Opt = a.Opt

func helper() {}
`,
		"fix_test.go": `package fix

import "fix/internal/a"

func init() { a.TestOnly() }
`,
		"internal/a/a.go": `package a

import "sync/atomic"

type I interface{ M() }

type T struct{}

func (T) M() {}

func Use(i I) { i.M() }

func unused() {}

type R struct{}

func (R) Stats() int { return 0 }

type S struct{}

func (S) Stats() int { return 1 }

type W struct {
	written int
	hits    atomic.Int64
	read    int
}

func NewW() *W {
	w := &W{read: 1}
	w.written = 2
	w.hits.Add(1)
	return w
}

func (w *W) Read() int { return w.read }

type K struct{ x, y int }

var byKey = map[K]int{}

func Lookup(x int) int { return byKey[K{x: x}] }

type J struct {
	Shown  int ` + "`json:\"shown\"`" + `
	hidden int
}

type Opt struct{ Field int }

type G[V any] struct{ v V }

func (g G[V]) Get() V { return g.v }

func NewG(v int) G[int] { return G[int]{v: v} }

func E2E() {}

func TestOnly() {}

func onlyIgnored() {}
`,
		"internal/a/ignored.go": `//go:build ignore

package a

func init() { onlyIgnored() }
`,
		"cmd/x/main.go": `package main

import "fix/internal/a"

func main() {
	a.Use(a.T{})
	_ = a.S{}.Stats() + a.NewW().Read() + a.Lookup(1) + a.NewG(1).Get()
	_ = a.J{}
	var _ a.Opt
}
`,
		"e2ebench/go.mod":  "module fix/e2ebench\n",
		"e2ebench/main.go": "package main\n\nfunc main() {}\n",
		"e2ebench/main_test.go": `package main

import (
	"testing"

	"fix/internal/a"
)

func TestE2E(t *testing.T) { a.E2E() }
`,
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, root)
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	found, _, err := unusedCode(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.id)
	}
	want := []string{
		"fix.helper",                 // an unexported root name nothing uses
		"fix/internal/a.R.Stats",     // S.Stats's call site does not reach it
		"fix/internal/a.TestOnly",    // used only by a test of this module
		"fix/internal/a.W.hits",      // only added to
		"fix/internal/a.W.written",   // only assigned
		"fix/internal/a.onlyIgnored", // used only by a file the build excludes
		"fix/internal/a.unused",      // an unused unexported function
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
