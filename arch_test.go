package doall

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// archRule is one architecture rule, checked over every non-test Go file of
// the module. check reports each violation in one file as a line.
type archRule struct {
	name  string
	why   string
	check func(path string, fset *token.FileSet, f *ast.File) []string
}

var archRules = []archRule{
	{
		name: "adversary hooks are consulted only by internal/sim",
		why: "Round semantics exist once, in sim.RoundCore; the engine and the live " +
			"and wire planes only drive it. A hook reached anywhere else, called or " +
			"taken as a method value, writes round semantics a second time. In the " +
			"packages that implement adversaries, an adversary that wraps adversaries " +
			"delegates the hook it implements, so a method may reach the hook of its " +
			"own name there. internal/live may not name a hook at all.",
		check: checkAdversaryHooks,
	},
	{
		name: "no encoding/gob in non-test code",
		why: "The cluster codec is hand-rolled (internal/live/wire.go over " +
			"internal/sim/wire.go) and TestWireFrameGolden pins its bytes; gob ships " +
			"a type schema with every self-contained frame.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			return imports(fset, f, func(p string) bool { return p == "encoding/gob" })
		},
	},
	{
		name: "internal/live/peer.go does not sleep",
		why: "The wire peer drains on a condition variable. A sleep there is a poll, " +
			"and a poll is a timer deciding an outcome.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if path != "internal/live/peer.go" {
				return nil
			}
			return pkgCalls(fset, f, "time", "Sleep")
		},
	},
	{
		name: "internal/sim starts no goroutine, makes no channel and never calls runtime.Goexit",
		why: "The engine is single-goroutine: it steps every process by a direct Step " +
			"call on its own stack, and the live plane steps each on its worker's " +
			"goroutine. A goroutine or channel here is a second scheduler the round core " +
			"does not see; a Goexit unwinds the stepping goroutine past the recover that " +
			"turns a failed step into a run error, killing the engine or a live worker.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if filepath.Dir(path) != "internal/sim" {
				return nil
			}
			out := pkgCalls(fset, f, "runtime", "Goexit")
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					out = append(out, fmt.Sprintf("%s starts a goroutine", fset.Position(n.Pos())))
				case *ast.ChanType:
					out = append(out, fmt.Sprintf("%s uses a channel type", fset.Position(n.Pos())))
				}
				return true
			})
			return out
		},
	},
	{
		name: "internal/live/transport.go never waits on two channels at once",
		why: "Each in-process worker parks on its own grant channel. A select with a " +
			"second communication case locks that channel too: the shared done channel " +
			"every RecvGrant and SendGrant once selected on put runtime.selectgo at 44 % " +
			"of live-mix CPU, its lock at 17 %. A one-case select with a default is a " +
			"non-blocking send or receive and waits on nothing.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if path != "internal/live/transport.go" {
				return nil
			}
			var out []string
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectStmt); ok {
					comms := 0
					for _, c := range sel.Body.List {
						if c.(*ast.CommClause).Comm != nil {
							comms++
						}
					}
					if comms > 1 {
						out = append(out, fmt.Sprintf("%s selects on %d channels", fset.Position(sel.Pos()), comms))
					}
				}
				return true
			})
			return out
		},
	},
	{
		name: "internal/live does not import internal/core",
		why: "The live plane is a driver of sim.RoundCore and runs whatever " +
			"sim.Stepper its caller hands it; which protocol runs is the caller's " +
			"choice. An import of core would tie the plane to the protocol registry " +
			"and forbid core from ever reaching live.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if filepath.Dir(path) != "internal/live" {
				return nil
			}
			return imports(fset, f, func(p string) bool { return p == "repro/internal/core" })
		},
	},
	{
		name: "internal/live does not import internal/group",
		why: "A plane carries no protocol structure: which process tells which group " +
			"is the Stepper's business, and a plane that knows the √t groups is a " +
			"second copy of a protocol.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if filepath.Dir(path) != "internal/live" {
				return nil
			}
			return imports(fset, f, func(p string) bool { return p == "repro/internal/group" })
		},
	},
	{
		name: "internal/explore does not import internal/live",
		why: "The certifier is engine-side: it walks schedules on pooled engines and " +
			"certifies their Results. Replaying a schedule on another plane is a " +
			"cross-plane check that belongs to a command that drives both, as " +
			"doall explore -plane live does.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if filepath.Dir(path) != "internal/explore" {
				return nil
			}
			return imports(fset, f, func(p string) bool { return p == "repro/internal/live" })
		},
	},
	{
		name: "nothing under internal/ imports benchmark/",
		why: "benchmark/ measures the program from outside and is pinned between " +
			"changes; code it measures must not depend on it.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			if !strings.HasPrefix(path, "internal/") {
				return nil
			}
			return imports(fset, f, func(p string) bool {
				return p == "repro/benchmark" || strings.HasPrefix(p, "repro/benchmark/")
			})
		},
	},
	{
		name: "no reflection sort in internal/sim, internal/core or internal/explore",
		why: "These packages are the run path of every engine run and every certified " +
			"schedule. sort.Slice and sort.SliceStable build a reflection swapper and " +
			"box their closures, and sort.Sort boxes its argument in an interface: " +
			"each allocates on every call. slices.SortFunc and slices.SortStableFunc " +
			"give the same order and allocate nothing.",
		check: func(path string, fset *token.FileSet, f *ast.File) []string {
			switch filepath.Dir(path) {
			case "internal/sim", "internal/core", "internal/explore":
			default:
				return nil
			}
			var out []string
			for _, name := range []string{"Slice", "SliceStable", "Sort"} {
				out = append(out, pkgCalls(fset, f, "sort", name)...)
			}
			return out
		},
	},
	{
		name: "protocol names are declared once, in internal/core/protocols.go",
		why: "core.Protocols declares each protocol's name together with its builder, " +
			"bounds and flags. A case clause or a literal key on a protocol name anywhere " +
			"else is a second registry that can drift from the table. benchmark/ is pinned " +
			"and keeps its own name map.",
		check: checkProtocolNames,
	},
}

// checkProtocolNames reports case clauses and composite-literal keys that
// are string literals from core.Protocols' name set.
func checkProtocolNames(path string, fset *token.FileSet, f *ast.File) []string {
	if path == "internal/core/protocols.go" || strings.HasPrefix(path, "benchmark/") {
		return nil
	}
	names := map[string]bool{}
	for _, p := range core.Protocols {
		names[p.Name] = true
	}
	var out []string
	report := func(e ast.Expr, what string) {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, _ := strconv.Unquote(lit.Value); names[s] {
				out = append(out, fmt.Sprintf("%s %s %s", fset.Position(lit.Pos()), what, lit.Value))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CaseClause:
			for _, e := range n.List {
				report(e, "switches on protocol name")
			}
		case *ast.KeyValueExpr:
			report(n.Key, "keys a literal on protocol name")
		}
		return true
	})
	return out
}

// imports reports every import of f whose path match accepts.
func imports(fset *token.FileSet, f *ast.File, match func(path string) bool) []string {
	var out []string
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); match(p) {
			out = append(out, fmt.Sprintf("%s imports %s", fset.Position(imp.Pos()), p))
		}
	}
	return out
}

// adversaryHooks are the sim.Adversary, sim.DeliveryAdversary and
// sim.Restarter methods that decide faults.
var adversaryHooks = map[string]bool{
	"OnAction": true, "OnDeliver": true, "ScheduledCrashes": true, "ScheduledRestarts": true,
}

// adversaryPackages implement adversaries, some of which wrap others and
// delegate the hook they implement to them.
var adversaryPackages = map[string]bool{
	"internal/adversary": true, "internal/explore": true, "benchmark": true,
}

func checkAdversaryHooks(path string, fset *token.FileSet, f *ast.File) []string {
	dir := filepath.Dir(path)
	if dir == "internal/sim" {
		return nil
	}
	var out []string
	if dir == "internal/live" {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && adversaryHooks[id.Name] {
				out = append(out, fmt.Sprintf("%s names %s", fset.Position(id.Pos()), id.Name))
			}
			return true
		})
		return out
	}
	for _, decl := range f.Decls {
		delegate := ""
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && adversaryPackages[dir] {
			delegate = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && adversaryHooks[sel.Sel.Name] && sel.Sel.Name != delegate {
				out = append(out, fmt.Sprintf("%s reaches %s", fset.Position(sel.Pos()), sel.Sel.Name))
			}
			return true
		})
	}
	return out
}

// pkgCalls reports every call of the function name from the imported
// package path, under whatever name the file imports it.
func pkgCalls(fset *token.FileSet, f *ast.File, path, name string) []string {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			local = path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return nil
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				out = append(out, fmt.Sprintf("%s uses %s.%s", fset.Position(sel.Pos()), path, name))
			}
		}
		return true
	})
	return out
}

// TestArchitectureRules parses every non-test Go file under the module root
// and holds it to archRules.
func TestArchitectureRules(t *testing.T) {
	fset := token.NewFileSet()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed := make(map[string]*ast.File, len(files))
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[path] = f
	}
	if parsed["internal/live/peer.go"] == nil || parsed["internal/live/transport.go"] == nil ||
		parsed["internal/sim/round.go"] == nil {
		t.Fatalf("walked %d files from %q without the files the rules name", len(files), ".")
	}
	for _, r := range archRules {
		for _, path := range files {
			for _, v := range r.check(path, fset, parsed[path]) {
				t.Errorf("%s: %s\n\twhy: %s", r.name, v, r.why)
			}
		}
	}
}
