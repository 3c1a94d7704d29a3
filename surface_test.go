package seldel

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is this module's import path. The benchmark module
// (benchmark/, which imports only the façade) lives below it.
const modulePath = "github.com/seldel/seldel"

// The kinds a golden line may give. An export without a caller stays as
// a paper capability kept for users of the façade, for an open ROADMAP
// item that calls or deletes it, or as a hook of the attack harness; a
// tuning knob cites a Test… function or a ROADMAP item as its evidence.
var (
	exportTag = regexp.MustCompile(`^(paper §\S+|item \d+|harness)$`)
	paperKind = regexp.MustCompile(`^paper §\S+$`)
	itemRef   = regexp.MustCompile(`^item \d+$`)
)

// TestEveryExportHasACaller pins the exported surface of internal/ and
// of the façade to their callers. Every exported package-level name and
// every exported method declared in a non-test file under internal/
// must be referenced by a non-test file of this module or of benchmark/,
// outside its own declaration. A method also counts as referenced when
// it implements a called method of an interface — declared on the
// implementing type or promoted into it — or a method of a standard
// interface the standard library calls (String, Error, Unwrap,
// MarshalText, …). Struct fields are out of scope: JSON and the stats
// code read them by reflection, and the settable ones are
// TestSettableValuesEarnTheirKeep's.
//
// A name of package seldel must be reached the way a user reaches it:
// referenced by a non-test file under examples/, cmd/ or benchmark/, a
// type in the signature of one of the façade's exported functions or of
// an exported method of a type it exports, or an Err… value (users match
// those with errors.Is).
//
// testdata/exports.golden lists the exceptions, one per line: the name
// as the scan prints it, a tab and its tag (exportTag). A golden line
// whose name has a caller, or no longer exists, fails too, so the list
// only shrinks.
func TestEveryExportHasACaller(t *testing.T) {
	unused, declared := unusedExports(checkModule(t))
	golden := readGolden(t, "testdata/exports.golden", func(tag string) error {
		if !exportTag.MatchString(tag) {
			return fmt.Errorf("tag %q is not `paper §…`, `item N` or `harness`", tag)
		}
		return nil
	})
	for _, name := range unused {
		if _, ok := golden[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or tag it in testdata/exports.golden", name)
		}
		delete(golden, name)
	}
	for name := range golden {
		if declared[name] {
			t.Errorf("testdata/exports.golden: %s has a caller now: remove its line", name)
		} else {
			t.Errorf("testdata/exports.golden: %s is not declared: remove its line", name)
		}
	}
}

// checked is one type-checked package: its non-test files and what the
// checker recorded about their identifiers.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// module is the type-checked non-test code of this module and of
// benchmark/, plus the standard interfaces (standardInterfaces).
type module struct {
	pkgs []checked
	std  []*types.Interface
}

// standardInterfaces are the interfaces the standard library calls
// through a type assertion or reflection rather than a call this
// module's code makes: a method that implements one has a caller.
const standardInterfaces = `package std

import ("container/heap"; "encoding"; "encoding/json"; "flag"; "fmt"; "io"; "net/http"; "sort")

var (
	_ fmt.Stringer
	_ fmt.GoStringer
	_ fmt.Formatter
	_ error
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ encoding.TextMarshaler
	_ encoding.TextUnmarshaler
	_ encoding.BinaryMarshaler
	_ encoding.BinaryUnmarshaler
	_ json.Marshaler
	_ json.Unmarshaler
	_ io.Reader
	_ io.Writer
	_ io.Closer
	_ io.WriterTo
	_ io.ReaderFrom
	_ http.Handler
	_ sort.Interface
	_ heap.Interface
	_ flag.Value
)
`

// checkModule type-checks every package of this module (testdata and
// nested modules aside) and of benchmark/. This module's imports are
// checked from their directories; the standard library is read from
// the export data `go list -export` reports, which is an order of
// magnitude faster than checking it from source.
func checkModule(t *testing.T) *module {
	t.Helper()
	var dirs []string
	stdPaths := make(map[string]bool)
	for _, root := range []string{".", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			bp, err := build.ImportDir(path, 0)
			if err != nil {
				return nil // no non-test Go files here
			}
			dirs = append(dirs, path)
			for _, imp := range bp.Imports {
				if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") {
					stdPaths[imp] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "std.go", standardInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range f.Imports {
		stdPaths[strings.Trim(spec.Path.Value, `"`)] = true
	}
	exports := stdExports(t, stdPaths)

	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	m := &module{}
	byPath := make(map[string]*types.Package)
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		byPath[path] = nil
		dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if dir == "" {
			dir = "."
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		c := checked{info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		if c.pkg, err = conf.Check(path, fset, c.files, c.info); err != nil {
			return nil, err
		}
		byPath[path] = c.pkg
		m.pkgs = append(m.pkgs, c)
		return c.pkg, nil
	}
	for _, dir := range dirs {
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if _, err := check(path); err != nil {
			t.Fatal(err)
		}
	}

	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: std}
	if _, err := conf.Check("std", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, spec := range f.Decls[1].(*ast.GenDecl).Specs {
		typ := info.Types[spec.(*ast.ValueSpec).Type].Type
		m.std = append(m.std, typ.Underlying().(*types.Interface))
	}
	return m
}

// stdExports maps each standard-library package the given ones import,
// themselves included, to its export data file, as one `go list -export`
// reports them.
func stdExports(t *testing.T, paths map[string]bool) map[string]string {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unusedExports returns, sorted, the exports under internal/ that have
// no caller and the façade's names no user reaches, and the set of
// every export it judged. An export is named "dir.Name" or
// "dir.Type.Method", dir being its package's directory
// (internal/store/segment.Store.SizeBytes), or "seldel" for the façade.
func unusedExports(m *module) (unused []string, declared map[string]bool) {
	// A reference counts only outside the declaration it names, and a
	// type is not referenced by its own methods' receivers.
	type span struct{ pos, end token.Pos }
	own := make(map[types.Object][]span)
	used := make(map[types.Object]bool)
	// byUser holds what examples/, cmd/ and benchmark/ reference.
	byUser := make(map[types.Object]bool)
	var facade *types.Package
	// called maps each interface with a called method to the names of
	// its called methods.
	called := make(map[*types.Interface][]string)
	for _, c := range m.pkgs {
		for _, f := range c.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := c.info.Defs[decl.Name]
					own[obj] = append(own[obj], span{decl.Pos(), decl.End()})
					if decl.Recv != nil {
						recv := decl.Recv.List[0].Type
						if id := receiverIdent(recv); id != nil {
							tn := c.info.Uses[id]
							own[tn] = append(own[tn], span{recv.Pos(), recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							obj := c.info.Defs[ts.Name]
							own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	for _, c := range m.pkgs {
		dir := strings.TrimPrefix(c.pkg.Path(), modulePath+"/")
		if c.pkg.Path() == modulePath {
			facade = c.pkg
		}
		user := strings.HasPrefix(dir, "examples/") || strings.HasPrefix(dir, "cmd/") ||
			dir == "benchmark" || strings.HasPrefix(dir, "benchmark/")
	uses:
		for id, obj := range c.info.Uses {
			obj = origin(obj)
			for _, sp := range own[obj] {
				if sp.pos <= id.Pos() && id.Pos() < sp.end {
					continue uses
				}
			}
			if user {
				byUser[obj] = true
			}
			if !used[obj] {
				used[obj] = true
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
						iface := recv.Type().Underlying().(*types.Interface)
						called[iface] = append(called[iface], fn.Name())
					}
				}
			}
		}
	}
	for _, iface := range m.std {
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface] = append(called[iface], iface.Method(i).Name())
		}
	}
	// A type that implements an interface has the interface's called
	// methods called, whether it declares them or promotes them.
	for _, c := range m.pkgs {
		scope := c.pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for iface, names := range called {
				if !types.Implements(ptr, iface) {
					continue
				}
				for _, name := range names {
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, c.pkg, name); obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}

	reachFacade(facade, byUser)

	declared = make(map[string]bool)
	judge := func(obj types.Object, name string, reached map[types.Object]bool) {
		declared[name] = true
		if !reached[obj] {
			unused = append(unused, name)
		}
	}
	for _, c := range m.pkgs {
		dir, _ := strings.CutPrefix(c.pkg.Path(), modulePath+"/")
		reached := used
		switch {
		case c.pkg == facade:
			dir, reached = "seldel", byUser
		case !strings.HasPrefix(dir, "internal/"):
			continue
		}
		scope := c.pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				judge(obj, dir+"."+n, reached)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						judge(m, dir+"."+n+"."+m.Name(), reached)
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					judge(m, dir+"."+n+"."+m.Name(), reached)
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, declared
}

// reachFacade adds to reached the façade's names a user reaches without
// naming them in examples/, cmd/ or benchmark/: its Err… values, and
// each type that appears in the signature of an exported function of
// the façade or of an exported method of a type it exports.
func reachFacade(facade *types.Package, reached map[types.Object]bool) {
	inSignature := make(map[*types.TypeName]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			inSignature[t.Origin().Obj()] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		}
	}
	scope := facade.Scope()
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.Func:
			if obj.Exported() {
				walk(obj.Type())
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			t := types.Unalias(obj.Type())
			if !types.IsInterface(t) {
				t = types.NewPointer(t)
			}
			methods := types.NewMethodSet(t)
			for i := 0; i < methods.Len(); i++ {
				if m := methods.At(i).Obj(); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.Var:
			if strings.HasPrefix(n, "Err") {
				reached[obj] = true
			}
		case *types.TypeName:
			if named, ok := types.Unalias(obj.Type()).(*types.Named); ok && inSignature[named.Obj()] {
				reached[obj] = true
			}
		}
	}
}

// receiverIdent is the type name of a method receiver expression (T,
// *T, T[P]).
func receiverIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestSettableValuesEarnTheirKeep pins every value a user or operator
// can set to the reason it exists: each field of a struct named Config,
// Options or *Options in non-test code (chain.Durability's fields too),
// each With* option of the façade, and each flag a binary under cmd/
// defines. testdata/settable.golden gives each exactly one kind:
//
//   - paper §…: a parameter of the paper's concept;
//   - seam: a dependency the caller supplies (Clock, Store, Engine, …);
//   - deployment: an address, a path, an identity or a seed;
//   - knob <evidence>: a tuning value, whose evidence is a Test…
//     function of this repository that shows it matters, or the open
//     ROADMAP item (item N) that settles it.
//
// A value missing from the golden fails, and so does a golden line that
// names no value or cites a test that does not exist. A knob without
// evidence becomes a constant.
func TestSettableValuesEarnTheirKeep(t *testing.T) {
	tests := testFunctions(t, "Test")
	golden := readGolden(t, "testdata/settable.golden", func(kind string) error {
		switch {
		case kind == "seam", kind == "deployment", paperKind.MatchString(kind):
			return nil
		case strings.HasPrefix(kind, "knob "):
			evidence := strings.TrimPrefix(kind, "knob ")
			if itemRef.MatchString(evidence) || tests[evidence] {
				return nil
			}
			return fmt.Errorf("knob evidence %q is neither a Test… function nor `item N`", evidence)
		}
		return fmt.Errorf("kind %q is not `paper §…`, `seam`, `deployment` or `knob <evidence>`", kind)
	})
	for _, v := range settableValues(t) {
		if _, ok := golden[v]; !ok {
			t.Errorf("%s is settable: give it a kind in testdata/settable.golden, or make it a constant", v)
		}
		delete(golden, v)
	}
	for name := range golden {
		t.Errorf("testdata/settable.golden: %s is not settable: remove its line", name)
	}
}

// flagDefiners are the flag.FlagSet methods that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true,
	"DurationVar": true, "Float64": true, "Float64Var": true, "Func": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true, "TextVar": true, "Uint": true,
	"UintVar": true, "Uint64": true, "Uint64Var": true,
}

// settableValues returns every settable value of this module's non-test
// code, as "dir.Type.Field", "seldel.WithX" or "cmd/<binary> -flag".
func settableValues(t *testing.T) []string {
	t.Helper()
	var out []string
	walkGo(t, false, func(dir string, f *ast.File) {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if dir == "." && decl.Recv == nil && strings.HasPrefix(decl.Name.Name, "With") {
					out = append(out, "seldel."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || name != "Config" && !strings.HasSuffix(name, "Options") && (dir != "internal/chain" || name != "Durability") {
						continue
					}
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							out = append(out, dir+"."+name+"."+n.Name)
						}
					}
				}
			}
		}
		if !strings.HasPrefix(dir, "cmd/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1 // StringVar(&p, "name", …)
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, dir+" -"+name)
				}
			}
			return true
		})
	})
	return out
}

// testFunctions returns the names of the test-file functions of this
// module and of benchmark/ that start with one of kinds ("Test",
// "Fuzz").
func testFunctions(t *testing.T, kinds ...string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	walkGo(t, true, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, kind := range kinds {
				if strings.HasPrefix(fn.Name.Name, kind) {
					out[fn.Name.Name] = true
				}
			}
		}
	})
	return out
}

// walkGo parses Go files below the repository root (testdata and hidden
// directories aside) and calls visit with each file's directory and
// syntax: the test files of this module and of benchmark/ when tests is
// set, this module's other files otherwise.
func walkGo(t *testing.T, tests bool, visit func(dir string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || name == "benchmark" && !tests) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readGolden reads a golden of "name<TAB>kind" lines (blank lines and
// # comments aside), checking each kind with valid.
func readGolden(t *testing.T, path string, valid func(kind string) error) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, kind, ok := strings.Cut(text, "\t")
		if !ok {
			t.Errorf("%s:%d: want name<TAB>kind, got %q", path, line, text)
			continue
		}
		if _, dup := out[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		if err := valid(kind); err != nil {
			t.Errorf("%s:%d: %s: %v", path, line, name, err)
		}
		out[name] = kind
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// update rewrites testdata/api.golden from the source instead of
// comparing: go test . -run TestFacadeAPIGolden -update
var update = flag.Bool("update", false, "rewrite testdata/api.golden from the source")

// TestFacadeAPIGolden pins the façade's exported surface: every exported
// name of package seldel with its kind, one per line, in
// testdata/api.golden (an alias names what it aliases). A change that
// grows or shrinks the surface shows in the golden's diff.
func TestFacadeAPIGolden(t *testing.T) {
	var lines []string
	walkGo(t, false, func(dir string, f *ast.File) {
		if dir != "." {
			return
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					lines = append(lines, "func "+decl.Name.Name)
				} else if recv := receiverIdent(decl.Recv.List[0].Type); recv.IsExported() {
					lines = append(lines, "method "+recv.Name+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								lines = append(lines, decl.Tok.String()+" "+n.Name)
							}
						}
					case *ast.TypeSpec:
						if !spec.Name.IsExported() {
							continue
						}
						line := "type " + spec.Name.Name
						if spec.Assign.IsValid() {
							line += " = " + types.ExprString(spec.Type)
						}
						lines = append(lines, line)
					}
				}
			}
		}
	})
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the façade's exported surface differs from %s (go test . -run TestFacadeAPIGolden -update rewrites it):\n%s",
			path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only want has (-) and only got has (+).
func lineDiff(want, got string) string {
	count := make(map[string]int)
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "- "+l)
		case n < 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
