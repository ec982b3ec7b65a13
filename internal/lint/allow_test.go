package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"testing"

	"ultrascalar/internal/lint"
)

// progFromSource assembles a one-package Program from in-memory sources,
// type-checked under pkgPath so analyzer scoping applies. Filenames are
// synthetic but stable, which is all the directive index needs.
func progFromSource(t *testing.T, pkgPath string, files map[string]string) *lint.Program {
	t.Helper()
	fset, imp := lint.FixtureImporter()
	var parsed []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, parsed, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	pkg := &lint.Package{Path: pkgPath, Files: parsed, Types: tpkg, Info: info}
	return lint.NewProgram(fset, []*lint.Package{pkg})
}

// countFindings lints and returns the number of surviving diagnostics.
func countFindings(t *testing.T, pkgPath, src string, azs ...*lint.Analyzer) int {
	t.Helper()
	prog := progFromSource(t, pkgPath, map[string]string{"allowfix.go": src})
	return len(prog.Lint(azs...))
}

const expPath = "ultrascalar/internal/exp"

// Each scope of the allow directive — trailing line, line above, func
// doc, file header — must suppress the same diagnostic; an allow naming
// a different analyzer must not.
func TestAllowScopes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"no allow", `package p
import "time"
func f() int64 { return time.Now().Unix() }
`, 1},
		{"trailing line allow", `package p
import "time"
func f() int64 { return time.Now().Unix() } //uslint:allow detorder -- test
`, 0},
		{"line above allow", `package p
import "time"
func f() int64 {
	//uslint:allow detorder -- test
	return time.Now().Unix()
}
`, 0},
		{"func doc allow", `package p
import "time"

//uslint:allow detorder -- test
func f() int64 {
	a := time.Now().Unix()
	b := time.Now().Unix()
	return a + b
}
`, 0},
		{"file header allow", `//uslint:allow detorder -- test
package p
import "time"
func f() int64 { return time.Now().Unix() }
func g() int64 { return time.Now().Unix() }
`, 0},
		{"wrong analyzer named", `package p
import "time"
func f() int64 { return time.Now().Unix() } //uslint:allow techonly -- names the wrong analyzer
`, 1},
		{"line allow does not leak to the next violation", `package p
import "time"
func f() int64 { return time.Now().Unix() } //uslint:allow detorder -- test
func g() int64 { return time.Now().Unix() }
`, 1},
		{"func allow does not leak to a sibling func", `package p
import "time"

//uslint:allow detorder -- test
func f() int64 { return time.Now().Unix() }
func g() int64 { return time.Now().Unix() }
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := countFindings(t, expPath, tc.src, lint.DetOrder); got != tc.want {
				t.Errorf("got %d findings, want %d", got, tc.want)
			}
		})
	}
}

// TestAllowStackedScopes layers file, func and line allows over the same
// diagnostic: redundant scopes must compose (still suppressed), not
// conflict.
func TestAllowStackedScopes(t *testing.T) {
	src := `//uslint:allow detorder -- file scope
package p
import "time"

//uslint:allow detorder -- func scope
func f() int64 {
	return time.Now().Unix() //uslint:allow detorder -- line scope
}
`
	if got := countFindings(t, expPath, src, lint.DetOrder); got != 0 {
		t.Errorf("stacked allows drew %d findings, want 0", got)
	}
}

// TestAllowMultipleAnalyzersOneLine exercises one line that draws
// findings from two different analyzers (detorder's time.Now and
// atomicwrite's os.WriteFile, both in serve scope): a comma list
// suppresses both, a single name leaves the other analyzer's finding.
func TestAllowMultipleAnalyzersOneLine(t *testing.T) {
	const servePath = "ultrascalar/internal/serve"
	mk := func(allow string) string {
		return fmt.Sprintf(`package p
import (
	"os"
	"time"
)
func dump(path string) error {
	return os.WriteFile(path, []byte(time.Now().String()), 0o644) %s
}
`, allow)
	}
	cases := []struct {
		name, allow string
		want        int
	}{
		{"both flagged", "", 2},
		{"comma list suppresses both", "//uslint:allow detorder,atomicwrite -- test", 0},
		{"single name leaves the other", "//uslint:allow detorder -- test", 1},
		{"spaces around the comma are tolerated", "//uslint:allow detorder, atomicwrite -- test", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := countFindings(t, servePath, mk(tc.allow), lint.DetOrder, lint.AtomicWrite)
			if got != tc.want {
				t.Errorf("got %d findings, want %d", got, tc.want)
			}
		})
	}
}

// TestAllowFuncDocStopsHotpathTraversal pins the doc-level allow's
// second effect: hotpathalloc stops its callee traversal at an allowed
// function, so allocations in functions only reachable through it are
// not findings.
func TestAllowFuncDocStopsHotpathTraversal(t *testing.T) {
	src := `package p

//uslint:hotpath
func hot() { cold() }

//uslint:allow hotpathalloc -- test: amortized setup, not per-cycle
func cold() { deep() }

func deep() { _ = make([]int, 4) }
`
	if got := countFindings(t, "fixture/hot", src, lint.HotPathAlloc); got != 0 {
		t.Errorf("traversal crossed an allowed function: %d findings, want 0", got)
	}
	// Without the allow, the same shape must flag deep's make.
	src2 := `package p

//uslint:hotpath
func hot() { cold() }

func cold() { deep() }

func deep() { _ = make([]int, 4) }
`
	if got := countFindings(t, "fixture/hot", src2, lint.HotPathAlloc); got != 1 {
		t.Errorf("control case drew %d findings, want 1", got)
	}
}

// TestAllowMalformedDirectives: an allow with no analyzer name, or only
// a reason, suppresses nothing — and does not crash the index.
func TestAllowMalformedDirectives(t *testing.T) {
	src := `package p
import "time"
func f() int64 { return time.Now().Unix() } //uslint:allow
func g() int64 { return time.Now().Unix() } //uslint:allow -- reason but no analyzer
func h() int64 { return time.Now().Unix() } //uslint:allow , -- empty list
`
	if got := countFindings(t, expPath, src, lint.DetOrder); got != 3 {
		t.Errorf("malformed allows suppressed findings: got %d, want 3", got)
	}
}
