package lint

import (
	"go/importer"
	"go/token"
	"go/types"
	"sync"
)

// Type-checking a fixture's standard-library imports from source is most
// of a fixture load, so every fixture loader of the test binary shares one
// FileSet and one source importer, which checks each standard package
// once. No lint test runs in parallel, so the importer needs no lock.
var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
)

// FixtureImporter returns the test binary's shared FileSet and source
// importer. It is exported for the external lint_test package.
func FixtureImporter() (*token.FileSet, types.Importer) {
	fixtureOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImp = importer.ForCompiler(fixtureFset, "source", nil)
	})
	return fixtureFset, fixtureImp
}
