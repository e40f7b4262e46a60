package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// staleDocNames are the backticked names the design documents cite that
// no Go file declares: the ones they cited when this check landed. The
// list may only shrink — TestDocNamesResolve fails when one of them
// resolves again or is no longer cited, so that fixing a document also
// removes its entry — and nothing may be added to it: a change that
// removes or renames a declaration rewrites the passages that name it.
var staleDocNames = []string{
	"Batch.edges", "Batch.scorers", "Config.HistoryCapacity",
	"Config.Participation", "Config.SolveWorkers", "Counter.Reset",
	"Frame.readFrom", "Gauge.Reset", "Histogram.ObserveDuration",
	"Histogram.Reset", "HistogramSnapshot.Merge", "Registry.Reset",
	"Result.Dropped", "SpanRecorder.TraceID", "System.Hist",
	"Topology.candidatesOf",
	"conformance.SecureBatcher", "core.solve_induction",
	"core.solve_rows", "experiment.LiveSetup.Tracer",
	"experiment.Setup.ProbeWorkers", "history.Profile", "history.Store",
	"history.Store.Peek", "link.to", "netwire.append",
	"netwire.frameReader", "netwire.frameStream", "node.Malicious",
	"onion.Identity", "probe.Set.Workers", "quality.Scorer",
	"telemetry.Tracer", "transport.Mirror", "transport.batchHist",
	"transport.message", "wire.Append",
}

// docFiles are the documents whose backticked names must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "ROADMAP.md"}

// TestDocNamesResolve parses every Go file in the tree and checks each
// backticked `pkg.Ident`, `pkg.Type.Member` or `Type.Member` in the
// design documents against the declarations: the identifier must be
// declared in a package of that name (a method of one of its types
// counts, as in `game.SolveFrom`), and the member must be a field or
// method of a type of that name (promoted ones included). A name that
// is a string literal of the tree's non-test code — a span, phase or
// metric name such as `probe.tick` — resolves too. A backticked name whose first part is
// neither a package nor a type of the tree — the standard library, a
// variable — is not checked, nor is a file name such as `route.go`.
func TestDocNamesResolve(t *testing.T) {
	tree := parseTree(t)
	stale := make(map[string]bool)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docNames(string(text)) {
			if !tree.resolves(name) {
				stale[name] = true
			}
		}
	}
	allowed := make(map[string]bool, len(staleDocNames))
	for _, name := range staleDocNames {
		allowed[name] = true
		if !stale[name] {
			t.Errorf("%s resolves or is no longer cited: remove it from staleDocNames", name)
		}
	}
	var found []string
	for name := range stale {
		if !allowed[name] {
			found = append(found, name)
		}
	}
	sort.Strings(found)
	for _, name := range found {
		t.Errorf("`%s` in %s names nothing the tree declares", name, strings.Join(docFiles, "/"))
	}
}

// fence matches a fenced code block; code, an inline code span; and
// dotted, the dotted identifier a span starts with.
var (
	fence  = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	code   = regexp.MustCompile("`([^`]+)`")
	dotted = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+`)
)

// docNames returns the dotted identifiers the inline code spans of a
// Markdown text start with, outside fenced blocks.
func docNames(text string) []string {
	var names []string
	for _, m := range code.FindAllStringSubmatch(fence.ReplaceAllString(text, ""), -1) {
		if name := dotted.FindString(m[1]); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// declTree is what the tree declares: each package name's top-level
// identifiers and types, and each type name's fields, methods and
// embedded types, over every package that declares a type of that name.
type declTree struct {
	pkgs    map[string]map[string]bool // package → identifiers and methods
	types   map[string]map[string]bool // package → its type names
	members map[string]map[string]bool // type name → fields and methods
	embeds  map[string][]string        // type name → embedded type names
	strs    map[string]bool            // string literals outside tests
}

// parseTree parses every Go file under the working directory, test files
// included, skipping hidden and build directories.
func parseTree(t *testing.T) *declTree {
	t.Helper()
	d := &declTree{
		pkgs:    make(map[string]map[string]bool),
		types:   make(map[string]map[string]bool),
		members: make(map[string]map[string]bool),
		embeds:  make(map[string][]string),
		strs:    make(map[string]bool),
	}
	walkTree(t, func(path string, f *ast.File) {
		d.add(f, !strings.HasSuffix(path, "_test.go"))
	})
	return d
}

// walkTree parses every Go file under the working directory and hands it
// to fn with its slash-separated path, skipping hidden directories (build
// caches among them) and testdata.
func walkTree(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// add records one file's declarations, and its string literals unless
// it is a test file (this one lists names that do not resolve).
func (d *declTree) add(f *ast.File, strs bool) {
	pkg := f.Name.Name
	set := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = make(map[string]bool)
		}
		m[key][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			set(d.pkgs, pkg, decl.Name.Name)
			if decl.Recv != nil {
				set(d.members, typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						set(d.pkgs, pkg, n.Name)
					}
				case *ast.TypeSpec:
					name := spec.Name.Name
					set(d.pkgs, pkg, name)
					set(d.types, pkg, name)
					d.addMembers(name, spec.Type)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && strs && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				d.strs[s] = true
			}
		}
		return true
	})
}

// addMembers records the fields, embedded types and interface methods
// of the type name declared as typ.
func (d *declTree) addMembers(name string, typ ast.Expr) {
	if d.members[name] == nil {
		d.members[name] = make(map[string]bool)
	}
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, field := range fields.List {
		if len(field.Names) == 0 { // embedded
			emb := typeName(field.Type)
			d.members[name][emb] = true
			d.embeds[name] = append(d.embeds[name], emb)
		}
		for _, n := range field.Names {
			d.members[name][n.Name] = true
		}
	}
}

// typeName returns the bare type name of a receiver or embedded field
// type: T for T, *T, T[P] and pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether some type named typ has member m, directly
// or promoted through its embedded types.
func (d *declTree) hasMember(typ, m string, depth int) bool {
	if d.members[typ][m] {
		return true
	}
	for _, emb := range d.embeds[typ] {
		if depth < 4 && d.hasMember(emb, m, depth+1) {
			return true
		}
	}
	return false
}

// fileExt are the extensions that make a dotted name a file name.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "sh": true, "yml": true, "mod": true, "csv": true, "gob": true, "txt": true}

// isType reports whether any package declares a type named name.
func (d *declTree) isType(name string) bool {
	_, ok := d.members[name]
	return ok
}

// resolves reports whether a dotted doc name names a declaration, or is
// not a name the tree could declare.
func (d *declTree) resolves(name string) bool {
	parts := strings.Split(name, ".")
	if d.strs[name] || fileExt[parts[len(parts)-1]] {
		return true
	}
	if decls, ok := d.pkgs[parts[0]]; ok {
		if !decls[parts[1]] {
			return false
		}
		if len(parts) > 2 && d.types[parts[0]][parts[1]] {
			return d.hasMember(parts[1], parts[2], 0)
		}
		return true
	}
	if d.isType(parts[0]) {
		return d.hasMember(parts[0], parts[1], 0)
	}
	return true
}
