package flashsim_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// knobAllow names the settings no registry path names and no non-test
// code sets that stay on purpose, by their path under internal/, with
// the reason.
var knobAllow = map[string]string{
	"machine.Config.Shards":            "deprecated and ignored; the frozen benchmark writes it (ROADMAP item 1(c))",
	"machine.SamplingConfig.Enabled":   "goes with sampling (ROADMAP item 1(b))",
	"machine.SamplingConfig.Window":    "goes with sampling (ROADMAP item 1(b))",
	"machine.SamplingConfig.Warmup":    "goes with sampling (ROADMAP item 1(b))",
	"machine.SamplingConfig.Phase":     "goes with sampling (ROADMAP item 1(b))",
	"machine.SamplingConfig.ColdState": "goes with sampling (ROADMAP item 1(b))",
}

// knobType selects the settings structs: the named struct types under
// internal/ whose name ends in Config, Fidelity or Timing.
var knobType = regexp.MustCompile(`(Config|Fidelity|Timing)$`)

// TestEveryKnobIsTurned fails on any exported field of a settings
// struct that nobody turns. A field is turned when a param registry
// path names it, or when non-test code (the benchmark's included)
// writes it with a value not built only from constants and
// package-level names, or with two different such values. Any other
// field holds one value for every caller: it is a constant of the
// model, and should read as one.
func TestEveryKnobIsTurned(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset, pkgs := loadModule(t)
	if n := len(knobFields(pkgs)); n < 60 {
		t.Fatalf("judged %d settings; the package walk is broken", n)
	}
	flagged, errs := judgeKnobs(fset, pkgs, registryFields(t), knobAllow)
	for _, e := range errs {
		t.Error(e)
	}
	if len(flagged) > 0 {
		t.Errorf("%d settings are set by no caller; fold each into a constant or allow it with a reason:\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
}

// TestKnobPassFlagsFixedSettings is the pass's mutation check: over a
// fixture type-checked in memory it must flag a setting written only
// with one constant, one written only from package-level names and one
// never written, and pass one a registry path names, one written from a
// parameter, one written with two constants and one incremented. It also
// holds the allowlist checks to their word.
func TestKnobPassFlagsFixedSettings(t *testing.T) {
	const src = `package fix

var base = 3

func scaled(n int) int { return n * 2 }

type Config struct {
	Fixed, FromPkg, Never, Named, FromParam, TwoConsts, Bumped int
	hidden                                                     int
}

type Other struct{ X int }

func Default(n int) Config {
	c := Config{Fixed: 4, FromPkg: scaled(base), FromParam: n, TwoConsts: 1, hidden: 5}
	c.TwoConsts = 2
	c.Bumped++
	return c
}

func Use() Other { return Other{X: 1} }
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
	pkgs := []*checkedPkg{pkg}
	if n := len(knobFields(pkgs)); n != 7 {
		t.Fatalf("judged %d settings, want 7", n)
	}
	flagged, errs := judgeKnobs(fset, pkgs, map[string]bool{"fix.Config.Named": true}, nil)
	for i, f := range flagged {
		flagged[i], _, _ = strings.Cut(f, " ")
	}
	if want := []string{"fix.Config.Fixed", "fix.Config.FromPkg", "fix.Config.Never"}; !slices.Equal(flagged, want) || len(errs) > 0 {
		t.Errorf("flagged %q (errors %q), want %q", flagged, errs, want)
	}
	_, errs = judgeKnobs(fset, pkgs, map[string]bool{"fix.Config.Named": true, "fix.Other.X": true},
		map[string]string{"fix.Config.Fixed": "allowed", "fix.Config.FromParam": "turned", "fix.Config.Gone": "undeclared"})
	sort.Strings(errs)
	if len(errs) != 3 || !strings.Contains(errs[0], "fix.Other.X") || !strings.Contains(errs[1], "fix.Config.FromParam is turned") ||
		!strings.Contains(errs[2], "fix.Config.Gone") {
		t.Errorf("errors %q, want one each for a registry path off the settings, a turned allowed setting and an undeclared name", errs)
	}
}

// judgeKnobs returns the settings of pkgs that named does not name, no
// write turns and allow does not name, sorted, each with its position,
// and what is wrong with named and allow: a name that is no setting, an
// allowed setting that is turned.
func judgeKnobs(fset *token.FileSet, pkgs []*checkedPkg, named map[string]bool, allow map[string]string) (flagged, errs []string) {
	knobs := knobFields(pkgs)
	judged := map[string]bool{}
	for _, name := range knobs {
		judged[name] = true
	}
	for name := range named {
		if !judged[name] {
			errs = append(errs, fmt.Sprintf("a registry path names %s, which is not a judged setting", name))
		}
	}
	for name := range allow {
		if !judged[name] {
			errs = append(errs, fmt.Sprintf("knobAllow names %s, which is not a judged setting", name))
		}
	}
	writes := knobWrites(pkgs, knobs)
	for v, name := range knobs {
		_, allowed := allow[name]
		switch turned := named[name] || writes[v].turned(); {
		case turned && allowed:
			errs = append(errs, fmt.Sprintf("%s is turned now; remove it from knobAllow", name))
		case !turned && !allowed:
			flagged = append(flagged, name+" ("+fset.Position(v.Pos()).String()+")")
		}
	}
	sort.Strings(flagged)
	return flagged, errs
}

// knobFields returns every exported field of a settings struct, by its
// name under internal/ ("cpu/mxs.Config.Window").
func knobFields(pkgs []*checkedPkg) map[*types.Var]string {
	knobs := map[*types.Var]string{}
	for _, p := range pkgs {
		if p.main || !strings.HasPrefix(p.path, "flashsim/internal/") {
			continue
		}
		for id, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() || !knobType.MatchString(id.Name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f] = p.short() + "." + id.Name + "." + f.Name()
				}
			}
		}
	}
	return knobs
}

// registryFields resolves every registry path's Field against
// machine.Config and returns each struct field on the way, by the same
// names as knobFields: "OS.TLBEntries" names machine.Config.OS and
// osmodel.Config.TLBEntries.
func registryFields(t *testing.T) map[string]bool {
	named := map[string]bool{}
	for _, p := range param.All() {
		typ := reflect.TypeOf(machine.Config{})
		for _, seg := range strings.Split(p.Field, ".") {
			seg, _, _ = strings.Cut(seg, "[")
			f, ok := typ.FieldByName(seg)
			if !ok {
				t.Fatalf("%s: %s has no field %s", p.Path, typ, seg)
			}
			named[strings.TrimPrefix(typ.PkgPath(), "flashsim/internal/")+"."+typ.Name()+"."+seg] = true
			for typ = f.Type; typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Array; {
				typ = typ.Elem()
			}
		}
	}
	return named
}

// knobWrite is what non-test code writes to one setting: whether some
// write is not constant, and the distinct constant expressions written.
type knobWrite struct {
	varies bool
	consts map[string]bool
}

func (w *knobWrite) turned() bool { return w != nil && (w.varies || len(w.consts) > 1) }

// knobWrites walks every package's code and records, per setting, the
// values assignments and composite literals store in it. An op=, ++ or
// -- and an assignment from a multi-valued call write a varying value.
func knobWrites(pkgs []*checkedPkg, knobs map[*types.Var]string) map[*types.Var]*knobWrite {
	writes := map[*types.Var]*knobWrite{}
	for _, p := range pkgs {
		record := func(v *types.Var, val ast.Expr) {
			if _, ok := knobs[v]; !ok {
				return
			}
			w := writes[v]
			if w == nil {
				w = &knobWrite{consts: map[string]bool{}}
				writes[v] = w
			}
			if val != nil && constantExpr(p.info, val) {
				w.consts[types.ExprString(val)] = true
			} else {
				w.varies = true
			}
		}
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var).Origin()
				}
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i, l := range x.Lhs {
						if v := field(l); v != nil {
							var val ast.Expr
							if (x.Tok == token.ASSIGN || x.Tok == token.DEFINE) && len(x.Rhs) == len(x.Lhs) {
								val = x.Rhs[i]
							}
							record(v, val)
						}
					}
				case *ast.IncDecStmt:
					if v := field(x.X); v != nil {
						record(v, nil)
					}
				case *ast.CompositeLit:
					typ := p.info.TypeOf(x).Underlying()
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem().Underlying()
					}
					st, ok := typ.(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								record(v.Origin(), kv.Value)
							}
						} else {
							record(st.Field(i).Origin(), el)
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// constantExpr reports whether e is built only from constants and
// package-level names: literals, constant expressions, package-level
// variables, functions and types, and calls, conversions, selections,
// indexes and composite literals of those.
func constantExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		return obj != nil && (obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope())
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, pkg := info.Uses[id].(*types.PkgName); pkg {
				return true
			}
		}
		return constantExpr(info, x.X)
	case *ast.ParenExpr:
		return constantExpr(info, x.X)
	case *ast.StarExpr:
		return constantExpr(info, x.X)
	case *ast.UnaryExpr:
		return constantExpr(info, x.X)
	case *ast.BinaryExpr:
		return constantExpr(info, x.X) && constantExpr(info, x.Y)
	case *ast.IndexExpr:
		return constantExpr(info, x.X) && constantExpr(info, x.Index)
	case *ast.CallExpr:
		if !constantExpr(info, x.Fun) {
			return false
		}
		for _, a := range x.Args {
			if !constantExpr(info, a) {
				return false
			}
		}
		return true
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if !constantExpr(info, el) {
				return false
			}
		}
		return true
	}
	return false
}
