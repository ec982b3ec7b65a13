package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// escapeFixtureSrc declares a hot root, a transitive callee, a method
// root, and a cold function, at known line numbers.
const escapeFixtureSrc = `package core

//uslint:hotpath
func hot(n int) int { // line 4
	s := 0
	for i := 0; i < n; i++ {
		s += helper(i)
	}
	return s
} // line 10

func helper(i int) int { // line 12
	return i * i
} // line 14

type eng struct{ n int }

//uslint:hotpath
func (e *eng) run() int { // line 19
	return helper(e.n)
} // line 21

func cold() []int { // line 23
	return make([]int, 4)
} // line 25
`

// escapeFixture builds a one-package Program whose Dir is a synthetic
// module root, so relative compiler paths resolve onto the fixture file.
func escapeFixture(t *testing.T) *Program {
	t.Helper()
	fset, imp := FixtureImporter()
	const dir = "/fake/mod"
	f, err := parser.ParseFile(fset, filepath.Join(dir, "core", "hot.go"), escapeFixtureSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check("ultrascalar/internal/core", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	pkg := &Package{Path: "ultrascalar/internal/core", Files: []*ast.File{f}, Types: tpkg, Info: info}
	prog := NewProgram(fset, []*Package{pkg})
	prog.Dir = dir
	return prog
}

func TestEscapeMessage(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"x escapes to heap", "x escapes to heap", true},
		{"x escapes to heap:", "x escapes to heap", true},
		{"moved to heap: x", "moved to heap: x", true},
		{"  flow: {heap} = &x:", "", false},
		{"\tfrom &x (address-of)", "", false},
		{"can inline helper with cost 4", "", false},
		{"inlining call to helper", "", false},
	}
	for _, tc := range cases {
		got, ok := escapeMessage(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("escapeMessage(%q) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// compilerOut is synthetic -m=2 output: escapes inside the hot root, the
// transitive callee and the method root must become entries; the cold
// function, inlining chatter, explanation flow lines, stdlib paths and
// the package header must not.
const fixtureCompilerOut = `# ultrascalar/internal/core
core/hot.go:5:2: s escapes to heap
core/hot.go:5:2: s escapes to heap:
core/hot.go:5:2:   flow: {heap} = &s:
core/hot.go:13:9: moved to heap: i
core/hot.go:20:16: e.n escapes to heap
core/hot.go:24:9: make([]int, 4) escapes to heap
core/hot.go:6:7: can inline helper with cost 4
/usr/local/go/src/fmt/print.go:100:2: v escapes to heap
`

func TestEscapeSites(t *testing.T) {
	prog := escapeFixture(t)
	sites := escapeSites(prog, fixtureCompilerOut)
	want := []string{
		"ultrascalar/internal/core (*eng).run: e.n escapes to heap",
		"ultrascalar/internal/core helper: moved to heap: i",
		"ultrascalar/internal/core hot: s escapes to heap",
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites, want %d: %v", len(sites), len(want), sites)
	}
	for i, w := range want {
		if sites[i].entry != w {
			t.Errorf("entry %d = %q, want %q", i, sites[i].entry, w)
		}
	}
	// Duplicate -m=1/-m=2 lines dedupe to one site; positions survive.
	if sites[2].line != 5 || !strings.HasSuffix(sites[2].file, "core/hot.go") {
		t.Errorf("hot site at %s:%d, want core/hot.go:5", sites[2].file, sites[2].line)
	}
}

func TestDiffEscapeBudget(t *testing.T) {
	prog := escapeFixture(t)
	sites := escapeSites(prog, fixtureCompilerOut)
	budget := map[string]int{
		// Two current entries present...
		"ultrascalar/internal/core hot: s escapes to heap":   8,
		"ultrascalar/internal/core helper: moved to heap: i": 9,
		// ...one stale entry in a loaded package...
		"ultrascalar/internal/core hot: gone escapes to heap": 10,
		// ...and one entry for a package not in this program, which a
		// subtree lint must not call stale.
		"ultrascalar/internal/isa ALUOp: x escapes to heap": 11,
	}
	diags := diffEscapeBudget(prog, sites, budget, "escape_budget.txt")
	var newEscapes, stale []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "not in budget") {
			newEscapes = append(newEscapes, d)
		} else if strings.Contains(d.Message, "stale budget entry") {
			stale = append(stale, d)
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(newEscapes) != 1 || !strings.Contains(newEscapes[0].Message, "(*eng).run") {
		t.Errorf("new escapes = %v, want exactly the (*eng).run entry", newEscapes)
	}
	if len(newEscapes) == 1 && newEscapes[0].Pos.Line != 20 {
		t.Errorf("new escape anchored at line %d, want the compiler-reported 20", newEscapes[0].Pos.Line)
	}
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "gone escapes to heap") {
		t.Errorf("stale = %v, want exactly the 'gone' entry", stale)
	}
	if len(stale) == 1 && (stale[0].Pos.Filename != "escape_budget.txt" || stale[0].Pos.Line != 10) {
		t.Errorf("stale diagnostic anchored at %s, want escape_budget.txt:10", stale[0].Pos)
	}
}

func TestReadEscapeBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.txt")
	content := "# header comment\n\npkg f: x escapes to heap\npkg g: y escapes to heap\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := readEscapeBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries["pkg f: x escapes to heap"] != 3 || entries["pkg g: y escapes to heap"] != 4 {
		t.Fatalf("entries = %v", entries)
	}
	if _, err := readEscapeBudget(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing budget file should error")
	}
}

// TestEscapeCheckModule is the integration path CI takes: run the real
// compiler over the engine's hot-path packages and hold the result to
// the checked-in golden budget. Loading is restricted to the packages
// the hot closure touches, which keeps the source type-check tractable.
func TestEscapeCheckModule(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and compiler")
	}
	prog, err := Load("../..",
		"./internal/core/...", "./internal/obs/...", "./internal/isa/...",
		"./internal/branch/...", "./internal/memory/...", "./internal/tracecache/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := EscapeCheck(prog, "escape_budget.txt")
	if err != nil {
		t.Fatalf("EscapeCheck: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected the budget to hold, got %d findings: %v", len(diags), diags)
	}
	// The budget must reproduce byte-identically from the same tree.
	entries, err := EscapeEntries(prog)
	if err != nil {
		t.Fatalf("EscapeEntries: %v", err)
	}
	data, err := os.ReadFile("escape_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	var fromFile []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			fromFile = append(fromFile, line)
		}
	}
	if strings.Join(entries, "\n") != strings.Join(fromFile, "\n") {
		t.Errorf("recomputed entries differ from the checked-in budget:\nrecomputed:\n%s\nchecked in:\n%s",
			strings.Join(entries, "\n"), strings.Join(fromFile, "\n"))
	}
}
