package dmcc_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the exported names under internal/ that no non-test file
// uses, each with the reason it stays. Keys are package.Name for
// package-level names and package.Type.Method for methods.
var testOnly = map[string]string{
	"align.DefaultWeightParams":         "test seam: the affinity weights of the alignment tests",
	"align.Graph.Feasible":              "reference: the same-array constraint the exact and greedy partitions are held to",
	"core.DeriveSchemes":                "test seam: scheme derivation from a partition, outside a compiler",
	"core.ProgramHashCalls":             "test seam: counts program hashes, so tests pin how many a request makes",
	"cost.Model.AffineTransform":        "paper formula: Table 1's AffineTransform row",
	"cost.Model.Gather":                 "paper formula: Table 1's Gather row",
	"cost.Model.SORNaiveIteration":      "paper formula: §5's naive SOR iteration time",
	"cost.Model.SORPipelinedIteration":  "paper formula: §5's pipelined SOR iteration time",
	"cost.Model.Scatter":                "paper formula: Table 1's Scatter row",
	"cost.Model.Shift":                  "paper formula: Table 1's Shift row",
	"cost.SymbolicSORNaive":             "paper formula: §5's naive SOR time, symbolic in m and N",
	"cost.SymbolicSORPipelined":         "paper formula: §5's pipelined SOR time, symbolic in m and N",
	"dep.DependenceVector":              "paper formula: Table 5's dependence vector of a token",
	"dep.FindProducer":                  "paper formula: Table 5's generated-in index of a token",
	"dist.IndexSet.Contains":            "reference: set membership, the definition the enumeration oracles of the rect and windowed-sum tests count by",
	"dist.Periodic":                     "test seam: a set from a member list, for the set tests of the packages above dist",
	"dist.Scheme.OwnedIndices":          "reference: the enumeration oracle of OwnedPatternOf",
	"grid.Grid.Rank":                    "reference: a tuple's row-major rank, Tuple's inverse; tests name processors by coordinates with it",
	"grid.Grid.Tuple":                   "reference: Rank's inverse, the round-trip oracle of Rank and Coord",
	"ir.LowerCalls":                     "test seam: counts lowerings, so tests pin how many an operation makes",
	"ir.Storage.Load":                   "test seam: reads one element of a Storage, for tests that check single values",
	"kernels.GaussPipelinedBlockCyclic": "paper formula: §6's load-balance claim, measured on a block-cyclic Fig 8 pipeline",
	"machine.Machine.DirectHandoffs":    "test seam: counts scheduler steps that took the single-runnable fast path",
	"machine.MaxOp":                     "test seam: a second combine operator for the collectives' tests",
	"machine.Port.Compute":              "test seam: the runtime-agreement tests' bodies compute through Port, which stays while the goroutine runtime does",
	"machine.Port.Recv":                 "test seam: the runtime-agreement tests' bodies receive through Port, which stays while the goroutine runtime does",
	"machine.Port.Send":                 "test seam: the runtime-agreement tests' bodies send through Port, which stays while the goroutine runtime does",
	"machine.Proc.Barrier":              "reference: the machine-wide synchronization the SPMD differential programs step through",
	"matrix.GaussPivotSeq":              "reference: sequential Gauss with partial pivoting",
	"matrix.NearSingularLeading":        "reference: a system whose leading pivot needs pivoting",
	"matrix.Residual":                   "reference: the residual the solvers' answers are checked by",
	"sched.IterationPeriod":             "paper formula: §6's average iteration time, (m + N) steps",
}

// TestEveryExportHasANonTestCaller: every exported function, method, type
// and package-level value declared in a non-test file under internal/ is
// used from a non-test file of the module or of bench/ outside its own
// declaration, or is on testOnly. Uses are resolved by go/types, so a
// method is told apart by its receiver: it is used when a selection
// resolves to it (or to its generic origin), or when its type implements
// an interface that declares it. A receiver is not a use of its type. An
// entry of testOnly that names nothing, or that has gained a use, fails too.
func TestEveryExportHasANonTestCaller(t *testing.T) {
	c := &typeChecker{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*checkedPkg{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	c.dirs["dmcc"] = "."
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			c.dirs["dmcc/"+filepath.ToSlash(dir)] = dir
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[types.Object]bool{}
	var decls []exportDecl
	for path := range c.dirs {
		p, err := c.check(path)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			p.collect(used, &decls, strings.HasPrefix(path, "dmcc/internal/"))
		}
	}
	ifaces := c.interfaces()
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		isUsed := used[d.obj] || implementsInterface(d.obj, ifaces)
		if _, listed := testOnly[d.key]; !isUsed && !listed {
			t.Errorf("%s: %s has no use outside tests; delete it, or list it in testOnly with the reason it stays", d.pos, d.key)
		} else if isUsed && listed {
			t.Errorf("%s: %s has a non-test use now; take it off testOnly", d.pos, d.key)
		}
	}
	for k := range testOnly {
		if !seen[k] {
			t.Errorf("testOnly lists %s, which is not declared in a non-test file under internal/", k)
		}
	}
}

// typeChecker type-checks the non-test files of the packages in dirs
// (import path → directory), each once, and the standard library from
// source.
type typeChecker struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	fset  *token.FileSet
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// exportDecl is one exported declaration: its key (package.Name or
// package.Type.Method), where it is, and its object.
type exportDecl struct {
	key, pos string
	obj      types.Object
}

func (c *typeChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, ".", 0)
}

func (c *typeChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ours := c.dirs[path]; !ours {
		return c.std.ImportFrom(path, dir, mode)
	}
	p, err := c.check(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s has no Go files", path)
	}
	return p.pkg, nil
}

// check type-checks the package at path, or returns nil for a directory
// without Go files.
func (c *typeChecker) check(path string) (*checkedPkg, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(c.dirs[path], 0)
	if _, none := err.(*build.NoGoError); none {
		c.pkgs[path] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &checkedPkg{fset: c.fset, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: c}
	if p.pkg, err = conf.Check(path, c.fset, p.files, p.info); err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

// collect marks in used every object a declaration of p uses, other than
// the ones it declares, and, when exports is set, appends p's exported
// declarations to decls.
func (p *checkedPkg) collect(used map[types.Object]bool, decls *[]exportDecl, exports bool) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if ix, ok := recv.(*ast.IndexExpr); ok {
						recv = ix.X
					}
					key = recv.(*ast.Ident).Name + "." + key
				}
				body := []ast.Node{d.Type}
				if d.Body != nil {
					body = append(body, d.Body)
				}
				p.unit(used, decls, exports, key, []*ast.Ident{d.Name}, body...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						body := []ast.Node{s.Type}
						if s.TypeParams != nil {
							body = append(body, s.TypeParams)
						}
						p.unit(used, decls, exports, s.Name.Name, []*ast.Ident{s.Name}, body...)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names { // an embedded interface has none
									p.unit(used, decls, exports, s.Name.Name+"."+id.Name, []*ast.Ident{id})
								}
							}
						}
					case *ast.ValueSpec:
						var body []ast.Node
						if s.Type != nil {
							body = append(body, s.Type)
						}
						for _, v := range s.Values {
							body = append(body, v)
						}
						p.unit(used, decls, exports, "", s.Names, body...)
					}
				}
			}
		}
	}
}

// unit records one declaration of names: key names a function, method or
// type, and is empty for values, which are keyed by their own names.
func (p *checkedPkg) unit(used map[types.Object]bool, decls *[]exportDecl, exports bool, key string, names []*ast.Ident, body ...ast.Node) {
	own := map[types.Object]bool{}
	for _, id := range names {
		obj := p.info.Defs[id]
		own[obj] = true
		if exports && id.IsExported() {
			k := key
			if k == "" {
				k = id.Name
			}
			pos := p.fset.Position(id.Pos())
			*decls = append(*decls, exportDecl{p.pkg.Name() + "." + k, fmt.Sprintf("%s:%d", pos.Filename, pos.Line), obj})
		}
	}
	for _, n := range body {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := p.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !own[obj] {
					used[obj] = true
				}
			}
			return true
		})
	}
}

// interfaces returns every named, non-generic interface of the checked
// packages and of everything they import, error among them.
func (c *typeChecker) interfaces() []*types.Named {
	out := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && types.IsInterface(named) {
				out = append(out, named)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		if p != nil {
			visit(p.pkg)
		}
	}
	return out
}

// implementsInterface reports whether obj is a method whose receiver's
// type, or a pointer to it, implements another interface declaring a
// method of obj's name.
func implementsInterface(obj types.Object, ifaces []*types.Named) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, named := range ifaces {
		if named == typ {
			continue // an interface's method is not used by that interface alone
		}
		iface := named.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
	}
	return false
}
