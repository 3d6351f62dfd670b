package fastrak

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllowlist names the functions that no production code reaches
// and that stay anyway, keyed as package.Func or package.Type.Method (the
// package by the last element of its import path). Each entry is a root
// of the walk below, so the helpers it calls need no entry of their own.
var deadCodeAllowlist = map[string]string{
	// Reference implementations that differential tests compare the
	// production classifiers against.
	"rules.VMRules.EvaluateLinear": "reference for the compiled classifier",
	"rules.VMRules.QueueForLinear": "reference for the compiled queue lookup",
	"rules.TCAM.LookupLinear":      "reference for the TCAM's tuple-space lookup",

	// Checkers and fakes that the tests of several packages share; a
	// _test.go file cannot be imported from another package.
	"telemetry.LintPrometheus":    "exposition checker for the telemetry, vswitch, service and root tests",
	"service.ManualClock.Advance": "fake clock for the service and root tests",

	// Paper experiments that wait for a row in the scenario table
	// (ROADMAP item 11); their tests run them today.
	"experiments.AblationScoreFunction":   "paper ablation awaiting its results row",
	"experiments.AblationTCAMCapacity":    "paper ablation awaiting its results row",
	"experiments.AblationControlInterval": "paper ablation awaiting its results row",
	"experiments.AblationFPSOverflow":     "paper ablation awaiting its results row",
	"experiments.AblationAggregation":     "paper ablation awaiting its results row",
	"experiments.ShuffleExperiment":       "paper experiment awaiting its results row",
}

// TestEveryFunctionHasACaller type-checks the module and bench/ from
// source and fails on each non-test function that production code cannot
// reach. The roots are every main and init, every package-level variable
// initializer, every method that satisfies an interface some package
// declares, every function bench/ names, and the allowlist. A call is
// resolved to the object it names, so a dead method is found even when a
// live method on another type shares its name.
func TestEveryFunctionHasACaller(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	w := newReachWalk(l)
	w.run()

	for key := range deadCodeAllowlist {
		fn, ok := w.byKey[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no function", key)
		case w.reachedOutsideAllowlist[fn]:
			t.Errorf("allowlist entry %s has a production caller; drop the entry", key)
		}
	}
	var dead []string
	for fn, decl := range w.decls {
		if !w.reached[fn] {
			pos := l.fset.Position(decl.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, funcKey(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests", d)
	}
}

// modulePackage is one package of the module, parsed without its tests.
type modulePackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleLoader type-checks the module's packages from source in import
// order and reads the standard library from export data.
type moduleLoader struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*modulePackage
	stdUse map[string]*types.Package
}

const modulePath = "repro"

func loadModule(root string) (*moduleLoader, error) {
	l := &moduleLoader{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*modulePackage{},
		stdUse: map[string]*types.Package{},
	}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := l.parseDir(p)
		if err != nil || len(files) == 0 {
			return err
		}
		ip := path.Join(modulePath, filepath.ToSlash(p))
		l.pkgs[ip] = &modulePackage{path: ip, files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range l.pkgs {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *moduleLoader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *moduleLoader) Import(ip string) (*types.Package, error) {
	mp, ok := l.pkgs[ip]
	if !ok {
		pkg, err := l.std.Import(ip)
		if err == nil {
			l.stdUse[ip] = pkg
		}
		return pkg, err
	}
	if mp.pkg != nil {
		return mp.pkg, nil
	}
	mp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(ip, l.fset, mp.files, mp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	mp.pkg = pkg
	return pkg, nil
}

// reachWalk marks every module function that a root reaches.
type reachWalk struct {
	l     *moduleLoader
	decls map[*types.Func]*ast.FuncDecl // every function outside bench/
	byKey map[string]*types.Func

	reached                 map[*types.Func]bool
	reachedOutsideAllowlist map[*types.Func]bool
	queue                   []*types.Func
}

func newReachWalk(l *moduleLoader) *reachWalk {
	w := &reachWalk{
		l:                       l,
		decls:                   map[*types.Func]*ast.FuncDecl{},
		byKey:                   map[string]*types.Func{},
		reached:                 map[*types.Func]bool{},
		reachedOutsideAllowlist: map[*types.Func]bool{},
	}
	for _, mp := range l.pkgs {
		if isBench(mp.path) {
			continue
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := mp.info.Defs[fd.Name].(*types.Func)
					w.decls[fn] = fd
					w.byKey[funcKey(fn)] = fn
				}
			}
		}
	}
	return w
}

func isBench(ip string) bool { return ip == modulePath+"/bench" }

func (w *reachWalk) run() {
	ifaces := w.interfaces()
	for _, mp := range w.l.pkgs {
		w.markImplementations(mp, ifaces)
		if isBench(mp.path) {
			for _, f := range mp.files {
				w.walk(mp, f)
			}
			continue
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && mp.pkg.Name() == "main") {
						w.mark(mp.info.Defs[d.Name].(*types.Func))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						w.walk(mp, d)
					}
				}
			}
		}
	}
	w.drain()
	for fn := range w.reached {
		w.reachedOutsideAllowlist[fn] = true
	}
	for key := range deadCodeAllowlist {
		if fn, ok := w.byKey[key]; ok {
			w.mark(fn)
		}
	}
	w.drain()
}

// interfaces collects every interface with methods that the module, bench/
// or an imported standard package declares, and error.
func (w *reachWalk) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, p := range w.l.stdUse {
		addScope(p)
	}
	for _, mp := range w.l.pkgs {
		addScope(mp.pkg)
		for _, tv := range mp.info.Types {
			if tv.IsType() {
				if _, ok := tv.Type.(*types.Interface); ok {
					add(tv.Type)
				}
			}
		}
	}
	return out
}

// markImplementations marks, for every concrete named type that p
// declares or instantiates and every interface it satisfies, the methods
// that satisfy it.
func (w *reachWalk) markImplementations(mp *modulePackage, ifaces []*types.Interface) {
	var named []*types.Named
	for _, name := range mp.pkg.Scope().Names() {
		if tn, ok := mp.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !isGeneric(n) {
				named = append(named, n)
			}
		}
	}
	for _, tv := range mp.info.Types {
		if n, ok := tv.Type.(*types.Named); ok && n.Origin() != n {
			named = append(named, n)
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					w.mark(obj.(*types.Func))
				}
			}
		}
	}
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

func (w *reachWalk) mark(fn *types.Func) {
	fn = fn.Origin()
	if w.reached[fn] {
		return
	}
	w.reached[fn] = true
	w.queue = append(w.queue, fn)
}

func (w *reachWalk) drain() {
	for len(w.queue) > 0 {
		fn := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		decl, ok := w.decls[fn]
		if !ok {
			continue
		}
		w.walk(w.l.pkgs[fn.Pkg().Path()], decl)
	}
}

// walk marks every function that an identifier under n refers to.
func (w *reachWalk) walk(mp *modulePackage, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := mp.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && w.l.pkgs[fn.Pkg().Path()] != nil {
				w.mark(fn)
			}
		}
		return true
	})
}

// funcKey names fn as package.Func or package.Type.Method.
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return path.Base(fn.Pkg().Path()) + "." + name
}
