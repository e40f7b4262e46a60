package bench

import (
	"go/ast"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreachedDecls are the exported declarations of internal/ that no
// non-test file references, each with the reason it stays. The list may
// only shrink — TestProductionDeclsReferenced fails when an entry gains a
// reference or is no longer declared, so that using or deleting it also
// removes its entry — and nothing may be added to it: code that only
// tests read lives in test files.
var unreachedDecls = map[string]string{
	// Decode errors: aliases of internal/wire's sentinels that the codecs
	// return, named where their callers match them with errors.Is.
	"clusterd.ErrMsgOversized": "ReadMsg/DecodeMsg's error, matched with errors.Is",
	"clusterd.ErrMsgShort":     "ReadMsg/DecodeMsg's error, matched with errors.Is",
	"clusterd.ErrMsgTrailing":  "DecodeMsg's error, matched with errors.Is",
	"clusterd.ErrMsgVersion":   "ReadMsg/DecodeMsg's error, matched with errors.Is",
	"netwire.ErrBadVersion":    "DecodeFrame's error, matched with errors.Is",
	"netwire.ErrOversized":     "DecodeFrame's error, matched with errors.Is",
	"netwire.ErrShortFrame":    "DecodeFrame's error, matched with errors.Is",
	"netwire.ErrTrailingData":  "DecodeFrame's error, matched with errors.Is",

	// Called by the standard library through an interface.
	"telemetry.SpanID.MarshalJSON":   "encoding/json calls it (json.Marshaler)",
	"telemetry.SpanID.UnmarshalJSON": "encoding/json calls it (json.Unmarshaler)",

	// Read by the tests of other packages, which a test file cannot
	// export to.
	"transport.RouterFunc":                "the fake Router of cmd/tracetool's, conformance's, netwire's and transport's tests",
	"game.PathGame.AppendRow":             "the solver's view of a row, read by core's and transport's row tests",
	"core.Batch.History":                  "integration's tests read a batch's history",
	"attack.Entropy":                      "integration's tests score a posterior with it",
	"overlay.Network.OnlineCount":         "churn's, overlay's and probe's tests count the online nodes",
	"sim.Engine.Pending":                  "probe's, sim's and vclock's tests check the queue drained",
	"transport.UtilityRouter.OpenBatches": "netwire's and transport's bounded-state tests",
}

// TestProductionDeclsReferenced holds production code to what a binary
// runs. Every exported top-level declaration and exported method of a
// non-test file under internal/ must be referenced from some non-test
// file of the tree (cmd/, examples/ and benchmark/ included) outside the
// declaration itself:
//   - a function, type, variable or constant by name — bare in a file of
//     its own package, as pkg.Name in a file that imports it;
//   - a method by any selector .Name, since a syntactic scan cannot tell
//     the receiver's type (a call through an interface counts).
//
// A method's receiver does not reference its type. The scan is a
// syntactic over-approximation: it can miss dead code (a local name or a
// method of another type with the same name counts), never flag live code.
func TestProductionDeclsReferenced(t *testing.T) {
	type decl struct {
		key   string // pkg.Name or pkg.Type.Method
		dir   string // the declaring package's directory
		name  string
		recv  string // the receiver's type name for a method
		owner ast.Node
	}
	var decls []decl
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	walkTree(t, func(p string, f *ast.File) {
		if strings.HasSuffix(p, "_test.go") {
			return
		}
		dir := path.Dir(p)
		files = append(files, file{dir, f})
		if !strings.HasPrefix(dir, "internal/") {
			return
		}
		pkg := f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{pkg + "." + d.Name.Name, dir, d.Name.Name, "", d})
					continue
				}
				recv := typeName(d.Recv.List[0].Type)
				if ast.IsExported(recv) {
					decls = append(decls, decl{pkg + "." + recv + "." + d.Name.Name, dir, d.Name.Name, recv, d})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, decl{pkg + "." + spec.Name.Name, dir, spec.Name.Name, "", spec})
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								decls = append(decls, decl{pkg + "." + n.Name, dir, n.Name, "", spec})
							}
						}
					}
				}
			}
		}
	})

	// Every reference: a selector name, a bare name within a package, and
	// pkg.Name across packages. One file set parsed the tree, so positions
	// order references and declarations across files.
	sels := map[string][]ast.Node{}   // .Name
	bare := map[string][]ast.Node{}   // dir + " " + Name, in dir
	qualif := map[string][]ast.Node{} // dir + " " + Name, as pkg.Name
	skip := map[*ast.Ident]bool{}     // receivers and selector names
	for _, fl := range files {
		imports := map[string]string{} // local name → directory
		for _, im := range fl.f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), "p2panon/")
			if !ok {
				continue
			}
			name := path.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		for _, d := range fl.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key := imports[x.Name] + " " + n.Sel.Name
					qualif[key] = append(qualif[key], n)
					return false
				}
				sels[n.Sel.Name] = append(sels[n.Sel.Name], n.Sel)
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					key := fl.dir + " " + n.Name
					bare[key] = append(bare[key], n)
				}
			}
			return true
		})
	}
	// outside reports whether some reference lies outside the
	// declaration's own node, its name included.
	outside := func(refs []ast.Node, owner ast.Node) bool {
		for _, r := range refs {
			if r.Pos() < owner.Pos() || r.End() > owner.End() {
				return true
			}
		}
		return false
	}

	var unreached []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		refs := sels[d.name]
		if d.recv == "" {
			refs = slices.Concat(bare[d.dir+" "+d.name], qualif[d.dir+" "+d.name])
		}
		if !outside(refs, d.owner) {
			unreached = append(unreached, d.key)
		}
	}
	sort.Strings(unreached)
	isUnreached := map[string]bool{}
	for _, key := range unreached {
		isUnreached[key] = true
		if unreachedDecls[key] == "" {
			t.Errorf("%s: no non-test file references it; delete it or move it into the test files that use it", key)
		}
	}
	for key := range unreachedDecls {
		switch {
		case !declared[key]:
			t.Errorf("%s is no longer declared: remove it from unreachedDecls", key)
		case !isUnreached[key]:
			t.Errorf("%s is referenced now: remove it from unreachedDecls", key)
		}
	}
}
