package whoisparse_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods under internal/
// that no non-test file references but that stay, each with its reason.
// Keys are "<package under internal/>.[<Receiver>.]<Name>".
var exportKeep = map[string]string{
	"lifecycle.New":               "the in-memory Manager constructor that the lifecycle, cluster and modelreg tests build managers with",
	"lifecycle.Manager.Metrics":   "the registry a Manager built without Options.Metrics reports into; TestHotSwapUnderLoad reads its counters",
	"lifecycle.Manager.ParseFunc": "the uncached parse path TestTieredDriftE2E and the cluster tests drive",
	"leakcheck.Joined":            "the goroutine-leak helper every leak test calls; the package exists for tests",
	"serve.Server.ParseWait":      "blocking single-record admission that TestHotSwapUnderLoad and the daemon and modelreg tests drive",
	"tiered.Router.Demoted":       "the per-registrar demotion probe TestTieredDriftE2E asserts on",
	"query.Engine.FullScan":       "the brute-force reference that query-diff holds Scan and Survey to",
	"store.Store.Compact":         "newest-wins compaction; ROADMAP item 12 gives it its first production caller",
	"crf.Model.Marginals":         "node marginals that BenchmarkForwardBackwardMarginals times in the root package",
	"crf.Model.Theta":             "the weight vector the core retrain tests compare byte for byte",
	"templates.NewTLDSchemas":     "the new-gTLD schema set the parse-diff, golden and drift tests of five packages generate records from",
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// goList returns the non-test packages of the module in dir and all
// their dependencies, dependencies first.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,ImportMap,Standard", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestNoTestOnlyExports type-checks every non-test package of both
// modules (the repository and perfbench) and fails on any exported
// function or method under internal/ that no non-test file references.
// Methods that satisfy an interface of the program are skipped, since
// calls through the interface do not name them. A test-only export
// either moves into the tests that use it or is listed in exportKeep.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole program")
	}
	var order []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range goList(t, dir) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	var ifaces []*types.Interface
	used := map[*types.Func]bool{}
	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	for _, lp := range order {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if path == "unsafe" {
					return types.Unsafe, nil
				}
				if mapped, ok := lp.ImportMap[path]; ok {
					path = mapped
				}
				if p := checked[path]; p != nil {
					return p, nil
				}
				return nil, fmt.Errorf("%s not checked before %s", path, lp.ImportPath)
			}),
			Sizes: types.SizesFor("gc", runtime.GOARCH),
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if !lp.Standard {
			info.Defs = map[*ast.Ident]types.Object{}
			info.Uses = map[*ast.Ident]types.Object{}
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg

		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		if lp.Standard {
			continue
		}
		// A reference from inside a function's own body (recursion)
		// does not count as a caller.
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fn.Scope() != nil && fn.Scope().Contains(id.Pos()) {
				continue
			}
			used[fn] = true
		}
		rel, ok := strings.CutPrefix(lp.ImportPath, "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := rel + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := recvNamed(recv.Type())
					key = rel + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fn})
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var unused []string
	for _, d := range decls {
		if used[d.fn] || satisfiesInterface(d.fn, ifaces) {
			continue
		}
		unused = append(unused, d.key)
	}
	sort.Strings(unused)
	flagged := map[string]bool{}
	for _, key := range unused {
		flagged[key] = true
		if _, ok := exportKeep[key]; !ok {
			t.Errorf("%s is exported but only tests reference it: move it into the tests or list it in exportKeep with a reason", key)
		}
	}
	for key := range exportKeep {
		if !flagged[key] {
			t.Errorf("exportKeep lists %s, which a non-test file references or which is gone: drop the entry", key)
		}
	}
}

// recvNamed returns the named type of a method receiver, through a
// pointer.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// satisfiesInterface reports whether fn is a method whose receiver type,
// or a pointer to it, implements an interface that declares a method of
// fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !it.IsMethodSet() || it.NumMethods() == 0 {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
