package seldel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoPath matches what the prose uses to name a place in this
// repository: a path below cmd/, internal/, examples/ or docs/, or a
// capitalised *.md / *.json document at the root (README.md,
// BENCHMARK.json — lower-case names such as load.json are example
// output files, not documents).
var repoPath = regexp.MustCompile(`\b(?:cmd|internal|examples|docs)/[\w./-]*|\b[A-Z][\w-]*\.(?:md|json)\b`)

// TestDocPathsExist keeps the prose true: every repository path named in
// the README, docs/, the command READMEs, the verify skill and the Go
// package comments must exist. History (CHANGES.md, ROADMAP.md, ISSUE.md,
// the paper notes) and benchmark/ are not read: they may name what is
// gone.
func TestDocPathsExist(t *testing.T) {
	check := func(file string, line int, text string) {
		for _, m := range repoPath.FindAllString(text, -1) {
			p := strings.TrimRight(m, "./-") // sentence ends, "internal/...", "cmd/"
			if i := strings.LastIndexByte(p, '.'); i > strings.LastIndexByte(p, '/') && p[i+1] >= 'A' && p[i+1] <= 'Z' {
				p = p[:i] // internal/attack.WithholdingTolerance: a symbol of the package
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s:%d: %s does not exist", file, line, p)
			}
		}
	}
	var docs []string
	for _, pattern := range []string{"README.md", "docs/*.md", "cmd/*/README.md", "cmd/*/*/README.md", ".claude/skills/*/SKILL.md"} {
		found, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, found...)
	}
	for _, file := range docs {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(data), "\n") {
			check(file, i+1, text)
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		if src.Doc != nil {
			for _, c := range src.Doc.List {
				check(path, fset.Position(c.Pos()).Line, c.Text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// codeSpan is an inline code span; goSelector a dotted Go name inside
// one (Node.Submit, chain.Chain.AppendEmpty, seldel.NewNode(...)).
var (
	codeSpan   = regexp.MustCompile("`[^`]+`")
	goSelector = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
)

// TestDocSymbolsExist keeps the prose's Go names true: in every inline
// code span of README.md and docs/*.md, a selector X.Y whose X is a
// package or an exported type declared in the root package or under
// internal/ must name something that exists — a top-level declaration
// of package X, or a method or field of type X (fields and methods of
// embedded and aliased types included). A name declared more than once
// (Config, Stats, Chain) counts as the union of its declarations.
func TestDocSymbolsExist(t *testing.T) {
	pkgs, members := goDeclarations(t)
	var docs []string
	for _, pattern := range []string{"README.md", "docs/*.md"} {
		found, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, found...)
	}
	for _, file := range docs {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, sel := range goSelector.FindAllString(span, -1) {
					// File names (node.go) and the benchmark's metric
					// names (verify.cache_hit_frac) are not Go selectors.
					if strings.HasSuffix(sel, ".go") || strings.Contains(sel, "_") {
						continue
					}
					parts := strings.Split(sel, ".")
					for j := 0; j+1 < len(parts); j++ {
						x, y := parts[j], parts[j+1]
						if decls, ok := pkgs[x]; ok {
							if !decls[y] {
								t.Errorf("%s:%d: `%s`: package %s declares no %s", file, i+1, sel, x, y)
								break
							}
							continue // y may be a type: check the next pair on it
						}
						if m, ok := members[x]; ok && token.IsExported(x) && !m[y] {
							t.Errorf("%s:%d: `%s`: type %s has no method or field %s", file, i+1, sel, x, y)
						}
						break
					}
				}
			}
		}
	}
}

// TestNoSleepInInternal keeps waits event-driven: no non-test file under
// internal/ may call time.Sleep. A wait blocks on the event it waits for
// (a channel, a timer bounding it), or the drills' simulated time would
// be spent as wall time.
func TestNoSleepInInternal(t *testing.T) {
	for _, pos := range nonTestCalls(t, "internal", "time", "Sleep") {
		t.Errorf("%s: time.Sleep", pos)
	}
}

// TestEd25519VerifyOnlyInVerify keeps one signature path: no non-test
// file of this module outside internal/verify calls ed25519.Verify, so
// every check goes through a verify.Pool — its counters and its cache.
func TestEd25519VerifyOnlyInVerify(t *testing.T) {
	for _, pos := range nonTestCalls(t, ".", "ed25519", "Verify") {
		if !strings.HasPrefix(pos.Filename, filepath.Join("internal", "verify")+string(filepath.Separator)) {
			t.Errorf("%s: ed25519.Verify outside internal/verify", pos)
		}
	}
}

// nonTestCalls returns where the non-test Go files of this module under
// root call pkg.name. Directories holding another module (benchmark/)
// are not part of it.
func nonTestCalls(t *testing.T, root, pkg, name string) []token.Position {
	t.Helper()
	fset := token.NewFileSet()
	var out []token.Position
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					out = append(out, fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goDeclarations parses the root package and everything under internal/
// (tests and testdata aside) and returns each package name's top-level
// declarations and each type name's methods and fields, the latter
// closed over embedding and type definitions in terms of another type.
func goDeclarations(t *testing.T) (pkgs, members map[string]map[string]bool) {
	t.Helper()
	pkgs = make(map[string]map[string]bool)
	direct := make(map[string]map[string]bool)
	inherits := make(map[string][]string)
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = make(map[string]bool)
		}
		m[key][name] = true
	}
	// typeName is the base name of a type expression: T, *T, pkg.T, T[P].
	var typeName func(e ast.Expr) string
	typeName = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.StarExpr:
			return typeName(e.X)
		case *ast.SelectorExpr:
			return e.Sel.Name
		case *ast.IndexExpr:
			return typeName(e.X)
		case *ast.IndexListExpr:
			return typeName(e.X)
		}
		return ""
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != "internal" && !strings.HasPrefix(path, "internal"+string(filepath.Separator)) || d.Name() == "testdata" {
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
		pkg := f.Name.Name
		add(pkgs, pkg, "") // a package with no declarations still exists
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkgs, pkg, decl.Name.Name)
				} else {
					add(direct, typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						add(pkgs, pkg, name)
						add(direct, name, "")
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							for _, field := range typ.Fields.List {
								if len(field.Names) == 0 {
									embedded := typeName(field.Type)
									add(direct, name, embedded)
									inherits[name] = append(inherits[name], embedded)
								}
								for _, n := range field.Names {
									add(direct, name, n.Name)
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, n := range m.Names {
									add(direct, name, n.Name)
								}
								if len(m.Names) == 0 {
									inherits[name] = append(inherits[name], typeName(m.Type))
								}
							}
						default:
							// type A = pkg.B, type A B: A has what B has.
							if base := typeName(typ); base != "" {
								inherits[name] = append(inherits[name], base)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	members = make(map[string]map[string]bool)
	var collect func(name string, into map[string]bool, seen map[string]bool)
	collect = func(name string, into map[string]bool, seen map[string]bool) {
		if seen[name] {
			return
		}
		seen[name] = true
		for m := range direct[name] {
			into[m] = true
		}
		for _, base := range inherits[name] {
			collect(base, into, seen)
		}
	}
	for name := range direct {
		members[name] = make(map[string]bool)
		collect(name, members[name], make(map[string]bool))
	}
	return pkgs, members
}
