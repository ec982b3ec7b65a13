package lint_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ultrascalar/internal/lint"
)

// wantRe matches analysistest-style expectation comments in fixtures:
// a trailing `// want "regex"` on the line the diagnostic lands on.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture parses and type-checks one testdata directory as a single
// package under the given import path (the analyzers scope by path), and
// collects its want expectations.
func loadFixture(t *testing.T, dir, pkgPath string) (*lint.Program, []*expectation) {
	t.Helper()
	fset, imp := lint.FixtureImporter()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	var wants []*expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		files = append(files, f)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, i+1, err)
			}
			wants = append(wants, &expectation{file: path, line: i + 1, re: re})
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	pkg := &lint.Package{Path: pkgPath, Files: files, Types: tpkg, Info: info}
	return lint.NewProgram(fset, []*lint.Package{pkg}), wants
}

// runFixture lints the fixture with one analyzer and holds the
// diagnostics exactly equal to the want expectations.
func runFixture(t *testing.T, dir, pkgPath string, az *lint.Analyzer) {
	t.Helper()
	prog, wants := loadFixture(t, dir, pkgPath)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations", dir)
	}
	for _, d := range prog.Lint(az) {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "hotpath"), "fixture/hotpath", lint.HotPathAlloc)
}

func TestDetOrderFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "detorder"), "ultrascalar/internal/exp", lint.DetOrder)
}

func TestTechOnlyFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "techonly"), "ultrascalar/internal/vlsi", lint.TechOnly)
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "ctxflow"), "ultrascalar/internal/exp", lint.CtxFlow)
}

func TestAtomicWriteFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "atomicwrite"), "ultrascalar/internal/serve", lint.AtomicWrite)
}

// TestAtomicWriteRescacheScope runs the same fixture under the result
// cache's import path: cache entries carry a SHA-256 over their payload,
// so a torn raw write would be quarantined as corruption on the next
// read — every crash-atomicity expectation must fire there too.
func TestAtomicWriteRescacheScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "atomicwrite"), "ultrascalar/internal/rescache", lint.AtomicWrite)
}

func TestBitvecSafeFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "bitvecsafe"), "ultrascalar/internal/core", lint.BitvecSafe)
}

// TestDetOrderServeScope runs the same fixture under the serve import
// path: handler/manager code is under the determinism contract too, so
// every expectation must fire there as well.
func TestDetOrderServeScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "detorder"), "ultrascalar/internal/serve", lint.DetOrder)
}

// TestDetOrderFaultScope and TestDetOrderObsScope pin the scope
// extension to the fault and obs packages: campaign plans, fault reports
// and emitted artifacts are all specified byte-identical per seed.
func TestDetOrderFaultScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "detorder"), "ultrascalar/internal/fault", lint.DetOrder)
}

func TestDetOrderObsScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "detorder"), "ultrascalar/internal/obs", lint.DetOrder)
}

// TestDetOrderObsLogScope pins the scope extension to the logging
// package: a log line's bytes are a pure function of the call, so the
// fixture's wall-clock, global-rand and map-order shapes must all fire
// under the obs/log import path too.
func TestDetOrderObsLogScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "detorder"), "ultrascalar/internal/obs/log", lint.DetOrder)
}

// TestCtxFlowObsLogScope does the same for the cancellation contract:
// the logging package's context carriers must not re-root contexts.
func TestCtxFlowObsLogScope(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "ctxflow"), "ultrascalar/internal/obs/log", lint.CtxFlow)
}

// TestCtxFlowScope and TestAtomicWriteScope and TestBitvecSafeScope
// type-check their fixtures under out-of-scope import paths: the same
// constructs draw no findings outside the contract packages.
func TestCtxFlowScope(t *testing.T) {
	prog, _ := loadFixture(t, filepath.Join("testdata", "ctxflow"), "example.com/elsewhere")
	if diags := prog.Lint(lint.CtxFlow); len(diags) != 0 {
		t.Fatalf("out-of-scope package drew %d findings: %v", len(diags), diags)
	}
}

func TestAtomicWriteScope(t *testing.T) {
	prog, _ := loadFixture(t, filepath.Join("testdata", "atomicwrite"), "example.com/elsewhere")
	if diags := prog.Lint(lint.AtomicWrite); len(diags) != 0 {
		t.Fatalf("out-of-scope package drew %d findings: %v", len(diags), diags)
	}
}

func TestBitvecSafeScope(t *testing.T) {
	prog, _ := loadFixture(t, filepath.Join("testdata", "bitvecsafe"), "example.com/elsewhere")
	if diags := prog.Lint(lint.BitvecSafe); len(diags) != 0 {
		t.Fatalf("out-of-scope package drew %d findings: %v", len(diags), diags)
	}
}

// TestDetOrderScope type-checks the detorder fixture under an
// out-of-scope import path: the same nondeterministic constructs draw no
// findings outside internal/exp and cmd.
func TestDetOrderScope(t *testing.T) {
	prog, _ := loadFixture(t, filepath.Join("testdata", "detorder"), "example.com/elsewhere")
	if diags := prog.Lint(lint.DetOrder); len(diags) != 0 {
		t.Fatalf("out-of-scope package drew %d findings: %v", len(diags), diags)
	}
}

// TestTechOnlyScope does the same for techonly.
func TestTechOnlyScope(t *testing.T) {
	prog, _ := loadFixture(t, filepath.Join("testdata", "techonly"), "example.com/elsewhere")
	if diags := prog.Lint(lint.TechOnly); len(diags) != 0 {
		t.Fatalf("out-of-scope package drew %d findings: %v", len(diags), diags)
	}
}

// TestLoadModule is the integration path the uslint binary takes: go
// list + parse + type-check a real package of this module. The vlsi
// package exercises cross-package imports and the allow directives; the
// tree is expected to be clean (CI enforces it repo-wide).
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	prog, err := lint.Load("../..", "./internal/vlsi/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if diags := prog.Lint(lint.All()...); len(diags) != 0 {
		t.Fatalf("expected a clean tree, got %d findings: %v", len(diags), diags)
	}
}
