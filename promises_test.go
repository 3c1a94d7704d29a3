package seldel

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// roadmapItem is an item heading of ROADMAP.md; a finished item's
	// title is struck through.
	roadmapItem = regexp.MustCompile(`(?m)^### (\d+)\. (.*)$`)
	// promiseGap is a holder field that names what an open item owes.
	promiseGap = regexp.MustCompile(`^gap item (\d+): \S`)
)

// TestEveryPromiseHasACheck pins each promise of testdata/promises.golden
// to what holds it. Every Test… or Fuzz… function a line names must
// exist in this module or in benchmark/, every `gap item N: …` must cite
// an item ROADMAP.md still lists as open, and every promise needs one of
// the two. A check renamed or deleted, or a gap left on a finished
// item, fails here, so no promise loses its check unnoticed.
func TestEveryPromiseHasACheck(t *testing.T) {
	checks := testFunctions(t, "Test", "Fuzz")
	open := openItems(t)
	promises := readGolden(t, "testdata/promises.golden", func(kind string) error {
		source, holders, _ := strings.Cut(kind, "\t")
		if source != "north star" && !paperKind.MatchString(source) {
			return fmt.Errorf("source %q is not `paper §…` or `north star`", source)
		}
		if holders == "" {
			return errors.New("names no check and no gap")
		}
		for _, h := range strings.Split(holders, "\t") {
			if strings.HasPrefix(h, "gap ") {
				m := promiseGap.FindStringSubmatch(h)
				if m == nil {
					return fmt.Errorf("%q is not `gap item N: what is not held`", h)
				}
				if !open[m[1]] {
					return fmt.Errorf("%q cites no open ROADMAP item", h)
				}
				continue
			}
			if !checks[h] {
				return fmt.Errorf("check %s is not a Test… or Fuzz… function of this module or of benchmark/", h)
			}
		}
		return nil
	})
	if len(promises) == 0 {
		t.Error("testdata/promises.golden lists no promise")
	}
}

// openItems returns the numbers of the items ROADMAP.md lists whose
// title is not struck through.
func openItems(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	open := make(map[string]bool)
	for _, m := range roadmapItem.FindAllStringSubmatch(string(raw), -1) {
		if !strings.HasPrefix(m[2], "~~") {
			open[m[1]] = true
		}
	}
	if len(open) == 0 {
		t.Fatal("ROADMAP.md lists no open item")
	}
	return open
}
