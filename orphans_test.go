package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanedInternalPackages fails when a package under internal/ has
// no importer outside test files: code that only its own tests exercise is
// dead weight. internal/testutil is test support and exempt by name.
func TestNoOrphanedInternalPackages(t *testing.T) {
	const module = "repro"
	exempt := map[string]bool{module + "/internal/testutil": true}
	packages := map[string]bool{} // internal packages with non-test sources
	imported := map[string]bool{} // import paths named by non-test sources
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(dir, "internal/") {
			packages[path.Join(module, dir)] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imported[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no internal packages; run from the module root")
	}
	for pkg := range packages {
		if !imported[pkg] && !exempt[pkg] {
			t.Errorf("%s is imported by no non-test file: delete it or use it", pkg)
		}
	}
}
