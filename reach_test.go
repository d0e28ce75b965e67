package flashsim_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachRoots are the shipped entry points: the two binaries, the
// benchmark driver (a module of its own) and the two examples.
var reachRoots = []struct{ dir, pkg string }{
	{".", "./cmd/flashsim"},
	{".", "./cmd/flashd"},
	{".", "./examples/quickstart"},
	{".", "./examples/serveclient"},
	{"benchmark", "."},
}

// reachAllow names the functions no entry point reaches that stay on
// purpose, by their path under internal/. Each reason starts with one of reachReasons: an oracle a
// test holds other code to, state a test observes through it, or API
// of the daemon's HTTP client that its users call and its tests drive.
var reachAllow = map[string]string{
	"cache.Cache.Resident":                   "observed by a test: the residency bound and conflict-set properties",
	"cache.MSHRs.Merges":                     "observed by a test: TestPortScriptPinned hashes it",
	"core.CompareResult.Entry":               "observed by a test: the Figure 1 checks read cells",
	"core.CompareResult.MaxAbsError":         "observed by a test: the Figure 1 checks",
	"core.Curve.At":                          "observed by a test: the trend checks read speedups",
	"core.Reference.Scaled":                  "observed by a test: TestReferenceAccessors",
	"cpu.MemInfo.L2Hit":                      "observed by a test: the memory port's access scripts",
	"network.Network.Route":                  "oracle: the e-cube walk TestSendWalksRoute holds Send to",
	"obs.Collector.Runs":                     "observed by a test: the collector and metrics tests",
	"param.Get":                              "observed by a test: reads a configuration by registry path",
	"param.SnapshotOf":                       "oracle: the encoding/json snapshot the canonical encoder and fingerprints are compared with",
	"proto.Directory.CheckAll":               "oracle: the coherence invariants of every directory entry",
	"proto.Directory.CheckLine":              "oracle: the coherence invariants of one directory entry",
	"proto.Directory.InvariantChecksEnabled": "observed by a test: the invariant tests",
	"proto.Directory.Lines":                  "observed by a test: the directory slab tests",
	"proto.Directory.State":                  "observed by a test: the protocol, port and memory-system tests",
	"proto.PointerStore.HighWater":           "observed by a test: the pointer store tests",
	"proto.PointerStore.InUse":               "observed by a test: the pointer store tests",
	"proto.PointerStore.Reclaims":            "observed by a test: the pointer store tests",
	"runner.Stats.Sub":                       "observed by a test: warm-pass deltas of the pool counters",
	"runner.Store.Evictions":                 "observed by a test: the byte-bound tests",
	"serve.Server.Collector":                 "observed by a test: the metrics endpoint tests",
	"serve/client.APIError.IsBusy":           "client API",
	"serve/client.Client.Health":             "client API",
	"serve/client.Client.Jobs":               "client API",
	"serve/client.Client.Metrics":            "client API",
	"tlb.TLB.Resident":                       "observed by a test: the residency bound property",
}

// reachReasons are the reasons a function may stay unreached.
var reachReasons = []string{"oracle", "observed by a test", "client API"}

// TestEveryFunctionIsLinked links every entry point with inlining off
// and the linker's dependency dump and call graph on, and fails on any
// function declared outside a main package and a _test.go file that no
// entry point reaches and reachAllow does not name. Code that no binary
// reaches is exercised only by a test written for it.
//
// The dump names, for each symbol the linker keeps, the first edge that
// kept it. Most are calls or references; the rest are methods kept
// because their receiver type is converted to an interface and some
// interface in the binary names a method of that signature (hash.Hash
// keeps every Reset() of such a type). Those are judged by their
// receiver type: reached when the type is converted to an interface and
// an interface declares a method of that name, when the standard
// library finds the method by a run-time assertion (String, Error,
// MarshalJSON, ...), or when a reached function calls it, which the
// call graph shows.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("links every entry point")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	decls, ifaces := parseModule(t)
	g := newLinkGraph(decls)
	out := t.TempDir()
	for i, r := range reachRoots {
		cmd := exec.Command(gobin, "build", "-o", filepath.Join(out, "root"+string(rune('0'+i))),
			"-gcflags=all=-l", "-ldflags=-dumpdep -c", r.pkg)
		cmd.Dir = r.dir
		cmd.Env = append(os.Environ(), "GOWORK=off")
		dump, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s in %s: %v\n%.2000s", r.pkg, r.dir, err, dump)
		}
		g.add(string(dump))
	}
	if g.edges < 10000 {
		t.Fatalf("the linker printed %d edges; its -dumpdep or -c output format changed", g.edges)
	}
	// A method kept for its receiver type counts when some interface
	// names it: a type converted to one interface may be asserted to
	// another at run time (cpu.Stream to cpu.BatchStream), which leaves
	// no itab in the binary.
	named := map[string]bool{}
	for _, set := range []map[string][]string{ifaces, stdInterfaces} {
		for _, methods := range set {
			for _, m := range methods {
				named[m] = true
			}
		}
	}
	for typ, set := range g.itabs {
		for iface := range set {
			_, ours := ifaces[iface]
			if _, std := stdInterfaces[iface]; !ours && !std {
				t.Fatalf("%s is converted to %s; add its method set to stdInterfaces", typ, iface)
			}
		}
	}
	reached := g.reached(named)

	var missing []string
	for key, pos := range decls {
		name := strings.TrimPrefix(key, "flashsim/internal/")
		_, allowed := reachAllow[name]
		switch {
		case reached[key] && allowed:
			t.Errorf("%s is reached now; remove it from reachAllow", name)
		case !reached[key] && !allowed:
			missing = append(missing, name+" ("+pos+")")
		}
	}
	for name, reason := range reachAllow {
		if _, ok := decls["flashsim/internal/"+name]; !ok {
			t.Errorf("reachAllow names %s, which is not declared", name)
		}
		if !slices.ContainsFunc(reachReasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			t.Errorf("reachAllow: %s: reason %q does not start with one of %q", name, reason, reachReasons)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d functions are reached by no entry point; delete them or allow them with a reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

// linkGraph is the union of the entry points' link graphs, over
// declarations: a key is "import/path.F" for a function and
// "import/path.T.M" for a method, whatever its receiver's pointerness
// or type arguments. The empty key stands for every symbol outside the
// module's non-main packages, all of which the linker kept for a root.
type linkGraph struct {
	decls    map[string]string
	in       map[string]map[string]bool // key -> keys of the symbols that call or refer to it
	typeKept map[string]bool            // methods some dump kept for their receiver type
	itabs    map[string]map[string]bool // receiver type -> interfaces it is converted to
	edges    int
}

func newLinkGraph(decls map[string]string) *linkGraph {
	return &linkGraph{decls: decls, in: map[string]map[string]bool{},
		typeKept: map[string]bool{}, itabs: map[string]map[string]bool{}}
}

var itabSym = regexp.MustCompile(`^go:itab\.\*?(flashsim/[^,]+),(.+)$`)

func (g *linkGraph) add(dump string) {
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			from, to, ok = strings.Cut(line, " calls ")
		}
		if !ok {
			continue
		}
		g.edges++
		from, to = symName(from), symName(to)
		for _, s := range [2]string{from, to} {
			if m := itabSym.FindStringSubmatch(s); m != nil {
				if g.itabs[m[1]] == nil {
					g.itabs[m[1]] = map[string]bool{}
				}
				g.itabs[m[1]][m[2]] = true
			}
		}
		key := g.key(to)
		if key == "" {
			continue
		}
		if strings.HasPrefix(from, "type:") {
			g.typeKept[key] = true
			continue
		}
		if g.in[key] == nil {
			g.in[key] = map[string]bool{}
		}
		g.in[key][g.key(from)] = true
	}
}

// symName drops a dump annotation and instantiated type arguments, so
// F[go.shape.int] and (*T[go.shape.int]).M read as F and (*T).M.
func symName(s string) string {
	if i := strings.Index(s, " <"); i >= 0 {
		s = s[:i]
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// innerFunc is a path element the compiler appends to a declaration's
// symbol for the functions inside it: closures and defer and go wrappers.
var innerFunc = regexp.MustCompile(`^((func|deferwrap|gowrap)?[0-9]+)$`)

// key maps a linker symbol to the declaration it belongs to: a closure,
// defer wrapper or method value to its enclosing function or method.
// Symbols of no declaration, data the compiler attaches to a function
// (.stkobj, .argliveinfo) included, map to "".
func (g *linkGraph) key(sym string) string {
	if !strings.HasPrefix(sym, "flashsim/") {
		return ""
	}
	dot := strings.LastIndex(sym, "/")
	dot += strings.Index(sym[dot:], ".")
	pkg, rest := sym[:dot], sym[dot+1:]
	rest = strings.ReplaceAll(strings.ReplaceAll(rest, "(*", ""), ")", "")
	parts := strings.Split(strings.TrimSuffix(rest, "-fm"), ".")
	for n := min(2, len(parts)); n > 0; n-- {
		if k := pkg + "." + strings.Join(parts[:n], "."); g.decls[k] != "" {
			for _, p := range parts[n:] {
				if !innerFunc.MatchString(p) {
					return ""
				}
			}
			return k
		}
	}
	return ""
}

// dynamicMethods are the methods the standard library finds by a
// run-time type assertion rather than through an itab in the binary.
var dynamicMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// stdInterfaces are the method sets of the standard library interfaces
// the module's types are converted to.
var stdInterfaces = map[string][]string{
	"error":      {"Error"},
	"flag.Value": {"String", "Set"},
}

// reached returns the declarations the entry points reach: those a
// symbol outside the module refers to, methods kept for a receiver type
// that is converted to an interface and that an interface names (or
// that the standard library finds by assertion), and, to a fixed point,
// those a reached declaration calls or refers to.
func (g *linkGraph) reached(named map[string]bool) map[string]bool {
	reached := map[string]bool{}
	for key := range g.typeKept {
		dot := strings.LastIndex(key, ".")
		typ, method := key[:dot], key[dot+1:]
		if dynamicMethods[method] || (len(g.itabs[typ]) > 0 && named[method]) {
			reached[key] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for key, from := range g.in {
			if reached[key] {
				continue
			}
			for f := range from {
				if f == "" || (f != key && reached[f]) {
					reached[key] = true
					changed = true
					break
				}
			}
		}
	}
	return reached
}

// parseModule parses every non-test file of the module outside main
// packages and the benchmark module. It returns each function and
// method declaration's key with its position, and the methods each
// interface type the module declares names itself.
func parseModule(t *testing.T) (map[string]string, map[string][]string) {
	decls := map[string]string{}
	ifaces := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := "flashsim"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls[key] = fset.Position(d.Pos()).String()
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					name := pkg + "." + ts.Name.Name
					ifaces[name] = []string{}
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaces[name] = append(ifaces[name], id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, ifaces
}

// recvType is the bare name of a receiver type: *T, T[K] and *T[K] are T.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// stateAllow names the fields that code writes and no reached code
// reads but that stay on purpose, by their path under internal/: a
// field ("pkg.T.f"), or a type ("pkg.T") for every field it declares.
// Each reason starts with one of stateReasons. A read inside a function
// reachAllow keeps as "observed by a test" counts only for a field that
// has its own entry here.
var stateAllow = map[string]string{
	"cache.MSHRs.merges":         "observed by a test: through MSHRs.Merges, which TestPortScriptPinned hashes",
	"core.TrendError":            "report: the rows of worksweep's -json evidence file",
	"cpu.MemInfo.L1Hit":          "benchmark: the frozen benchmark's all-hit port sets it; it goes when that does",
	"harness.Table3Data":         "observed by a test: checkTable3 reads every case's three latencies",
	"harness.WorkloadTrendRow":   "report: the rows of worksweep's -json evidence file",
	"machine.Config.Shards":      "benchmark: deprecated and ignored; the frozen benchmark's probe writes it, and it goes when that does",
	"machine.Result.Sampled":     "wire: flashd's result body and the memo store carry it; the sampling engine that sets it goes with the frozen benchmark's sampled replays",
	"obs.Report":                 "report: the -metrics-out document's layout version",
	"param.Param.Field":          "observed by a test: the snapshot and canonical-encoder walks resolve it by reflection",
	"proto.PointerStore.reclaim": "observed by a test: through PointerStore.Reclaims",
	"runner.Store.evictions":     "observed by a test: through Store.Evictions",
	"serve.ErrorResponse":        "wire: flashd's error body",
	"serve.JobStatus":            "wire: flashd's job envelope",
	"trace.Meta":                 "wire: the trace container's header, which carries the capture's configuration snapshot",
}

// stateReasons are the reasons a written field may stay unread: a
// report or JSON document that carries it out of the process, a test
// that observes it, or a frozen benchmark that writes it.
var stateReasons = []string{"report", "wire", "observed by a test", "benchmark"}

// TestEveryFieldIsRead type-checks every non-test package of the module
// and of the benchmark module, and fails on any struct field, declared
// outside main packages and test code, that code writes and never reads
// and stateAllow does not name. A write is the left side of =, op= or
// ++/--, or a composite-literal key: x.n += 1 writes n and does not
// read it. A counter nothing reads costs its increment on every path
// that bumps it and explains nothing.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset, pkgs := loadModule(t)
	observers := map[string]bool{}
	for name, reason := range reachAllow {
		if strings.HasPrefix(reason, "observed by a test") {
			observers[name] = true
		}
	}
	fields := fieldUses(fset, pkgs, observers)
	t.Logf("judged %d fields", len(fields))
	if len(fields) < 800 {
		t.Fatalf("judged %d fields; the package walk is broken", len(fields))
	}
	flagged, errs := judgeFields(fields, stateAllow)
	for _, e := range errs {
		t.Error(e)
	}
	if len(flagged) > 0 {
		t.Errorf("%d fields are written and never read; delete them or allow them with a reason:\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
}

// TestFieldPassFlagsWriteOnlyState is the pass's mutation check: over a
// fixture type-checked in memory it must flag a plain write-only field,
// one only ever incremented and one set only by a composite literal,
// and must not flag a field read through a method or a field of an
// allowed type. It also holds the allowlist checks to their word.
func TestFieldPassFlagsWriteOnlyState(t *testing.T) {
	const src = `package fix

type Wire struct{ Sent int }

type S struct {
	plain, counter, lit, viaMethod, read, observed int
}

func (s *S) get() int { return s.viaMethod }

func (s *S) Observe() int { return s.observed }

func Use() int {
	s := S{lit: 1}
	s.plain = 2
	s.counter += 3
	s.counter++
	s.viaMethod = 4
	s.read, s.observed = 5, 6
	w := &Wire{Sent: 1}
	_ = w
	return s.get() + s.read
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &checkedPkg{path: "flashsim/internal/fix", files: []*ast.File{f}, info: newInfo()}
	if _, err := (&types.Config{}).Check(pkg.path, fset, pkg.files, pkg.info); err != nil {
		t.Fatal(err)
	}
	fields := fieldUses(fset, []*checkedPkg{pkg}, map[string]bool{"fix.S.Observe": true})
	if len(fields) != 7 {
		t.Fatalf("judged %d fields, want 7", len(fields))
	}
	flagged, errs := judgeFields(fields, map[string]string{"fix.Wire": "wire: the fixture's JSON body"})
	for i, f := range flagged {
		flagged[i], _, _ = strings.Cut(f, " ")
	}
	if want := []string{"fix.S.counter", "fix.S.lit", "fix.S.observed", "fix.S.plain"}; !slices.Equal(flagged, want) || len(errs) > 0 {
		t.Errorf("flagged %q (errors %q), want %q", flagged, errs, want)
	}
	_, errs = judgeFields(fields, map[string]string{
		"fix.S.read": "observed by a test: read now", "fix.S.gone": "wire: not declared",
		"fix.S.plain": "because", "fix.S": "report: still exempts counter, lit and observed",
	})
	sort.Strings(errs)
	if len(errs) != 3 || !strings.Contains(errs[0], "fix.S.read is read") || !strings.Contains(errs[1], "fix.S.gone") ||
		!strings.Contains(errs[2], "reason") {
		t.Errorf("allowlist errors %q, want one each for a read field, an undeclared name and a bad reason", errs)
	}
}

// checkedPkg is one type-checked package: a package of the module, or
// the benchmark's main package.
type checkedPkg struct {
	path  string
	main  bool
	files []*ast.File
	info  *types.Info
}

// short is the package's path as the allowlists name it: under
// internal/, or under the module for the root and cmd packages.
func (p *checkedPkg) short() string {
	return strings.TrimPrefix(strings.TrimPrefix(p.path, "flashsim/internal/"), "flashsim/")
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// loadModule parses the non-test files of every package of the module
// and of the benchmark module and type-checks them, the standard
// library from source (cgo off: nothing here reads a cgo field).
func loadModule(t *testing.T) (*token.FileSet, []*checkedPkg) {
	fset := token.NewFileSet()
	// The source importer reads build.Default when it imports.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), e.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "flashsim"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	imp := &moduleImporter{fset: fset, files: files, done: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil)}
	for path := range files {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return fset, imp.checked
}

// moduleImporter type-checks the module's packages on first import and
// hands every other path to the standard library's importer.
type moduleImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	done    map[string]*types.Package
	std     types.Importer
	checked []*checkedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	files, ours := m.files[path]
	if !ours {
		return m.std.Import(path)
	}
	if p := m.done[path]; p != nil {
		return p, nil
	}
	cp := &checkedPkg{path: path, main: files[0].Name.Name == "main", files: files, info: newInfo()}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, cp.info)
	if err != nil {
		return nil, err
	}
	m.done[path] = p
	m.checked = append(m.checked, cp)
	return p, nil
}

// fieldUse is what the module does with one judged field.
type fieldUse struct {
	owner       string // the declaring type's name, "pkg.T"
	pos         string
	read, wrote bool
}

// fieldUses walks every package and returns, by name ("pkg.T.f", the
// package's path under internal/), each field declared in a non-main
// package and whether code reads and writes it. Reads inside the
// functions observers names do not count.
func fieldUses(fset *token.FileSet, pkgs []*checkedPkg, observers map[string]bool) map[string]*fieldUse {
	byVar := map[*types.Var]*fieldUse{}
	uses := map[string]*fieldUse{}
	for _, p := range pkgs {
		if p.main {
			continue
		}
		short := p.short()
		for id, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			owner := short + "." + id.Name
			namedFields(tn.Type().Underlying(), owner, func(name string, v *types.Var) {
				u := &fieldUse{owner: owner, pos: fset.Position(v.Pos()).String()}
				byVar[v], uses[name] = u, u
			})
		}
	}
	for _, p := range pkgs {
		w := &fieldWalker{info: p.info, uses: byVar}
		short := p.short()
		for _, f := range p.files {
			for _, d := range f.Decls {
				w.observer = false
				if fd, ok := d.(*ast.FuncDecl); ok && !p.main {
					key := short + "." + fd.Name.Name
					if fd.Recv != nil {
						key = short + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					w.observer = observers[key]
				}
				w.node(d)
			}
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				w.compared(m.Key())
			}
		}
	}
	return uses
}

// namedFields calls fn for every non-blank field of a struct type under
// owner, and for the fields of struct types written inline in it, as
// owner.f.g.
func namedFields(typ types.Type, owner string, fn func(string, *types.Var)) {
	st, ok := typ.(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" {
			continue
		}
		fn(owner+"."+f.Name(), f)
		inner := f.Type()
		for {
			switch x := inner.(type) {
			case *types.Pointer:
				inner = x.Elem()
				continue
			case *types.Slice:
				inner = x.Elem()
				continue
			case *types.Array:
				inner = x.Elem()
				continue
			case *types.Map:
				inner = x.Elem()
				continue
			}
			break
		}
		namedFields(inner, owner+"."+f.Name(), fn)
	}
}

// fieldWalker marks the judged fields an AST reads and writes.
type fieldWalker struct {
	info     *types.Info
	uses     map[*types.Var]*fieldUse
	observer bool // inside a function whose reads do not count
}

func (w *fieldWalker) mark(v *types.Var, write bool) {
	u := w.uses[v.Origin()]
	switch {
	case u == nil:
	case write:
		u.wrote = true
	case !w.observer:
		u.read = true
	}
}

func (w *fieldWalker) node(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				w.lhs(l)
			}
			for _, r := range x.Rhs {
				w.node(r)
			}
			return false
		case *ast.IncDecStmt:
			w.lhs(x.X)
			return false
		case *ast.CompositeLit:
			w.literal(x)
			return false
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				w.compared(w.info.TypeOf(x.X))
			}
		case *ast.SelectorExpr:
			w.selection(x, false)
			w.node(x.X)
			return false
		}
		return true
	})
}

// compared marks every field of a struct type read, as == and a map
// keyed by the type read them.
func (w *fieldWalker) compared(typ types.Type) {
	switch x := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if u := w.uses[x.Field(i).Origin()]; u != nil {
				u.read = true
			}
			w.compared(x.Field(i).Type())
		}
	case *types.Array:
		w.compared(x.Elem())
	}
}

// lhs marks an assignment's target: every field on the path from the
// variable to the stored location is written, except one holding a
// pointer the path goes through, which is read.
func (w *fieldWalker) lhs(e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		w.lhs(x.X)
	case *ast.IndexExpr:
		w.node(x.Index)
		w.lhs(x.X)
	case *ast.StarExpr:
		w.node(x.X)
	case *ast.SelectorExpr:
		if !w.selection(x, true) {
			w.node(x)
			return
		}
		if _, ptr := w.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
			w.node(x.X)
		} else {
			w.lhs(x.X)
		}
	default:
		w.node(e)
	}
}

// selection marks a field selection and the embedded fields it goes
// through; it reports whether x selects a field. A method selection
// reads the embedded fields on its path.
func (w *fieldWalker) selection(x *ast.SelectorExpr, write bool) bool {
	sel := w.info.Selections[x]
	if sel == nil {
		return false
	}
	field := sel.Kind() == types.FieldVal
	typ := sel.Recv()
	idx := sel.Index()
	for i, n := range idx {
		if i == len(idx)-1 {
			if field {
				w.mark(sel.Obj().(*types.Var), write)
			}
			break
		}
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		f := typ.Underlying().(*types.Struct).Field(n)
		w.mark(f, write && field)
		typ = f.Type()
	}
	return field
}

// literal marks the fields a struct literal sets as written.
func (w *fieldWalker) literal(x *ast.CompositeLit) {
	typ := w.info.TypeOf(x).Underlying()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem().Underlying()
	}
	st, isStruct := typ.(*types.Struct)
	for i, el := range x.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && isStruct {
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					w.mark(v, true)
				}
			} else {
				w.node(kv.Key)
			}
			w.node(kv.Value)
			continue
		}
		if isStruct {
			w.mark(st.Field(i), true)
		}
		w.node(el)
	}
}

// judgeFields returns the fields written and never read that allow
// does not name, sorted, each with its position, and what is wrong with
// allow: an entry with no declaration, one whose field is read, one that
// exempts nothing, a reason outside stateReasons.
func judgeFields(fields map[string]*fieldUse, allow map[string]string) (flagged, errs []string) {
	owners := map[string]bool{}
	needed := map[string]bool{}
	for name, u := range fields {
		owners[u.owner] = true
		if !u.wrote || u.read {
			continue
		}
		_, byField := allow[name]
		_, byType := allow[u.owner]
		switch {
		case byField:
			needed[name] = true
		case byType:
			needed[u.owner] = true
		default:
			flagged = append(flagged, name+" ("+u.pos+")")
		}
	}
	for name, reason := range allow {
		u, isField := fields[name]
		switch {
		case !isField && !owners[name]:
			errs = append(errs, fmt.Sprintf("stateAllow names %s, which is not declared", name))
		case isField && u.read:
			errs = append(errs, fmt.Sprintf("%s is read now; remove it from stateAllow", name))
		case !needed[name]:
			errs = append(errs, fmt.Sprintf("stateAllow: %s exempts no written, unread field; remove it", name))
		}
		if !slices.ContainsFunc(stateReasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			errs = append(errs, fmt.Sprintf("stateAllow: %s: reason %q does not start with one of %q", name, reason, stateReasons))
		}
	}
	sort.Strings(flagged)
	return flagged, errs
}
