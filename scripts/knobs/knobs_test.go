// Package knobs holds the check that every exported function of the
// program has a product caller.
//
// A function or option that only tests reach is surface nobody can reach:
// it costs a reader the time to learn it and the maintainer the time to
// keep it right, and it buys nothing. The check type-checks the module's
// non-test Go and the benchmark module's (bench/, its own module that
// imports this one) with go/types, so a call is resolved to the function
// it names, not to every function that shares its name. It has three
// rules:
//
//   - Options: every top-level With… function in non-test Go outside
//     bench/ has a caller in another non-test file.
//   - Exported functions: every exported function and method declared in
//     internal/ has a caller in another non-test file. Callers in bench/,
//     cmd/, examples/ and the root package count. A method that satisfies
//     an interface counts as called: the call goes through the interface.
//   - Allowlist: each exception below is named with a one-line reason, and
//     an entry whose function is gone, or now has a product caller, fails.
//
// Run it with `make knobs`, or `go test ./scripts/knobs`. Packages outside
// this module are read from their export data (`go list -export`), so the
// check needs nothing beyond the go command.
package knobs

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allow names each exported function that may lack a product caller, as
// package.Func or package.Type.Method, with the reason it stays.
var allow = map[string]string{
	"wire.Read":              "the reference frame reader that the wire, netps and netar tests parse raw frames with",
	"metrics.Gauge.Value":    "the gauge's reading that the runner's and the root package's tests assert on",
	"ps.Cluster.Outstanding": "the leak check that plugin's tests run after every trial",
}

// listed is the part of `go list -json` the check reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

func goList(t *testing.T, dir string, args ...string) []listed {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,Standard,Export"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v in %s: %v\n%s", args, dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// source is one type-checked package of the module or of bench/.
type source struct {
	pkg  *types.Package
	info *types.Info
}

// load type-checks the non-test Go of the module at root and of its bench/
// module, in dependency order, reading every other package from its export
// data.
func load(t *testing.T, root string) (*token.FileSet, []source) {
	t.Helper()
	var mods, std []listed
	seen := map[string]bool{}
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		for _, p := range goList(t, dir, "-deps", "./...") {
			if seen[p.ImportPath] || len(p.GoFiles) == 0 {
				continue
			}
			seen[p.ImportPath] = true
			if p.Standard {
				std = append(std, p)
			} else {
				mods = append(mods, p)
			}
		}
	}
	exports := map[string]string{}
	paths := make([]string, len(std))
	for i, p := range std {
		paths[i] = p.ImportPath
	}
	for _, p := range goList(t, root, append([]string{"-export"}, paths...)...) {
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	typed := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := typed[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	var out []source
	for _, p := range mods {
		// go test caches a pass by the files the test opened; reading the
		// directory too makes a file added to the package rerun it.
		if _, err := os.ReadDir(p.Dir); err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		typed[p.ImportPath] = pkg
		out = append(out, source{pkg, info})
	}
	return fset, out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checked is a function the rules hold to a product caller.
type checked struct {
	fn   *types.Func
	file string // the declaring file
}

// key names fn as the allowlist does: package.Func or package.Type.Method.
func key(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

func TestProductCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset, srcs := load(t, root)
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(string(out))
	internal := module + "/internal/"

	// The functions the rules cover, every interface a method could be
	// called through (by method name), and every named type whose methods
	// could satisfy one.
	var fns []checked
	var named []*types.Named
	ifaces := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	scopes := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if scopes[p] {
			return
		}
		scopes[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, s := range srcs {
		walk(s.pkg)
		for _, tv := range s.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		bench := strings.HasPrefix(s.pkg.Path(), module+"/bench")
		for _, name := range s.pkg.Scope().Names() {
			obj := s.pkg.Scope().Lookup(name)
			file := fset.Position(obj.Pos()).Filename
			switch obj := obj.(type) {
			case *types.Func:
				if !bench && strings.HasPrefix(name, "With") ||
					strings.HasPrefix(s.pkg.Path(), internal) && obj.Exported() {
					fns = append(fns, checked{obj, file})
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				named = append(named, n)
				if !strings.HasPrefix(s.pkg.Path(), internal) {
					continue
				}
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						fns = append(fns, checked{m, fset.Position(m.Pos()).Filename})
					}
				}
			}
		}
	}

	// Every file that refers to each function, outside tests (the loader
	// reads no test file).
	callers := map[*types.Func]map[string]bool{}
	for _, s := range srcs {
		for id, obj := range s.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if callers[fn] == nil {
					callers[fn] = map[string]bool{}
				}
				callers[fn][fset.Position(id.Pos()).Filename] = true
			}
		}
	}
	// A method satisfies an interface through every type whose method set
	// holds it, its own or one that embeds its receiver. (Implements is
	// unspecified on an uninstantiated generic type, so those are skipped.)
	satisfies := map[*types.Func]bool{}
	for _, n := range named {
		if types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func).Origin()
			for _, it := range ifaces[fn.Name()] {
				if fn.Exported() && !satisfies[fn] && types.Implements(ptr, it) {
					satisfies[fn] = true
				}
			}
		}
	}

	var bad []string
	keys := map[string]bool{}
	for _, c := range fns {
		k := key(c.fn)
		keys[k] = true
		n := 0
		for f := range callers[c.fn] {
			if f != c.file {
				n++
			}
		}
		used := n > 0 || satisfies[c.fn]
		rel, _ := filepath.Rel(root, c.file)
		switch _, allowed := allow[k]; {
		case allowed && used:
			bad = append(bad, k+" ("+rel+") is allowlisted but has a product caller: drop its allowlist entry")
		case !allowed && !used && len(callers[c.fn]) > 0:
			bad = append(bad, k+" ("+rel+") is called only in its own file: unexport it")
		case !allowed && !used:
			bad = append(bad, k+" ("+rel+") has no caller outside tests: delete it, or give a test that needs it the unexported field")
		}
	}
	for k := range allow {
		if !keys[k] {
			bad = append(bad, k+" is allowlisted but no longer exists: drop its allowlist entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d functions in %d packages checked, %d allowlisted", len(fns), len(srcs), len(allow))
}
