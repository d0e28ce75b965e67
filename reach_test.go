package flashsim_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
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
	"param.Param.Get":                        "observed by a test: the registry completeness walk",
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
