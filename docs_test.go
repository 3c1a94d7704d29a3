package seldel

import (
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
