package dmcc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the exported names under internal/ that no non-test file
// calls, each with the reason it stays. Keys are package.Name for
// package-level names and package.Type.Method for methods.
var testOnly = map[string]string{
	"align.DefaultWeightParams":         "test seam: the affinity weights of the alignment tests",
	"align.Graph.Feasible":              "reference: the same-array constraint the exact and greedy partitions are held to",
	"core.DeriveSchemes":                "test seam: scheme derivation from a partition, outside a compiler",
	"core.ProgramHashCalls":             "test seam: counts program hashes, so tests pin how many a request makes",
	"cost.Model.SORNaiveIteration":      "paper formula: §5's naive SOR iteration time",
	"cost.Model.SORPipelinedIteration":  "paper formula: §5's pipelined SOR iteration time",
	"cost.SymbolicSORNaive":             "paper formula: §5's naive SOR time, symbolic in m and N",
	"cost.SymbolicSORPipelined":         "paper formula: §5's pipelined SOR time, symbolic in m and N",
	"dep.DependenceVector":              "paper formula: Table 5's dependence vector of a token",
	"dep.FindProducer":                  "paper formula: Table 5's generated-in index of a token",
	"dist.Scheme.OwnedIndices":          "reference: the enumeration oracle of OwnedPatternOf",
	"grid.Grid.Tuple":                   "reference: Rank's inverse, the round-trip oracle of Rank and Coord",
	"ir.Stencil":                        "reference: §1's five-point stencil, a program the alignment, range and lowering tests run",
	"kernels.GaussPipelinedBlockCyclic": "paper formula: §6's load-balance claim, measured on a block-cyclic Fig 8 pipeline",
	"kernels.Stencil2DSeq":              "reference: the sequential 2-D stencil the kernel is compared with",
	"kernels.StencilSeq":                "reference: the sequential stencil the kernel is compared with",
	"machine.AsyncConfig":               "test seam: DefaultConfig with asynchronous collectives",
	"machine.Machine.DirectHandoffs":    "test seam: counts scheduler steps that took the single-runnable fast path",
	"machine.MaxOp":                     "test seam: a second combine operator for the collectives' tests",
	"machine.Proc.Barrier":              "reference: the machine-wide synchronization the SPMD differential programs step through",
	"machine.procHeap.Less":             "standard-library interface method: container/heap calls it",
	"machine.procHeap.Pop":              "standard-library interface method: container/heap calls it",
	"machine.procHeap.Push":             "standard-library interface method: container/heap calls it",
	"machine.procHeap.Swap":             "standard-library interface method: container/heap calls it",
	"matrix.GaussPivotSeq":              "reference: sequential Gauss with partial pivoting",
	"matrix.NearSingularLeading":        "reference: a system whose leading pivot needs pivoting",
	"matrix.Residual":                   "reference: the residual the solvers' answers are checked by",
	"sched.IterationPeriod":             "paper formula: §6's average iteration time, (m + N) steps",
}

// TestEveryExportHasANonTestCaller: every exported function, method, type
// and package-level value declared in a non-test file under internal/ is
// referenced by name from a non-test file under internal/, cmd/,
// examples/ or bench/ other than its own declaration, or is on testOnly.
// Package-level names must be referenced through their package (or
// unqualified inside it); methods, lacking types, by name alone. An entry
// of testOnly that names nothing, or that has gained a caller, fails too.
func TestEveryExportHasANonTestCaller(t *testing.T) {
	decls := map[string]export{}
	refs := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			into := decls
			if root != "internal" {
				into = nil
			}
			scanFile(fset, f, "dmcc/"+filepath.ToSlash(filepath.Dir(file)), into, refs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		used := refs[decls[k].ref]
		if _, listed := testOnly[k]; !used && !listed {
			t.Errorf("%s: %s has no caller outside tests; delete it, or list it in testOnly with the reason it stays", decls[k].pos, k)
		} else if used && listed {
			t.Errorf("%s: %s has a non-test caller now; take it off testOnly", decls[k].pos, k)
		}
	}
	for k := range testOnly {
		if _, ok := decls[k]; !ok {
			t.Errorf("testOnly lists %s, which is not declared in a non-test file under internal/", k)
		}
	}
}

// export is one exported declaration: where it is, and the reference key
// that counts as a use of it.
type export struct{ pos, ref string }

// scanFile records in refs every reference f makes — "path.Name" for a
// package-level name, ".Name" for a selector that may name a method — and,
// unless decls is nil, its exported declarations in decls, keyed
// package.Name or package.Type.Method. A declaration's own name, its
// receiver and the names of parameters and fields are not references,
// and neither is a use of a name inside the declaration that declares it.
func scanFile(fset *token.FileSet, f *ast.File, pkgPath string, decls map[string]export, refs map[string]bool) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	// A unit is one function, method, type or value: the reference key of
	// the name it declares and the nodes whose references count.
	type unit struct {
		own  string
		body []ast.Node
	}
	var units []unit
	declare := func(key, ref string, id *ast.Ident, body ...ast.Node) {
		if decls != nil && id.IsExported() {
			pos := fset.Position(id.Pos())
			decls[f.Name.Name+"."+key] = export{fmt.Sprintf("%s:%d", pos.Filename, pos.Line), ref}
		}
		units = append(units, unit{ref, body})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			body := []ast.Node{d.Type}
			if d.Body != nil {
				body = append(body, d.Body)
			}
			key, ref := d.Name.Name, pkgPath+"."+d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				key, ref = recv.(*ast.Ident).Name+"."+d.Name.Name, "."+d.Name.Name
			}
			declare(key, ref, d.Name, body...)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name.Name, pkgPath+"."+s.Name.Name, s.Name, s.Type)
				case *ast.ValueSpec:
					body := []ast.Node{s.Type}
					for _, v := range s.Values {
						body = append(body, v)
					}
					for _, n := range s.Names {
						declare(n.Name, pkgPath+"."+n.Name, n, body...)
					}
				}
			}
		}
	}
	for _, u := range units {
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			var key string
			switch n := n.(type) {
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key = imports[x.Name] + "." + n.Sel.Name
				} else {
					key = "." + n.Sel.Name
					ast.Inspect(n.X, visit)
				}
			case *ast.Ident:
				key = pkgPath + "." + n.Name
			default:
				return true
			}
			if key != u.own {
				refs[key] = true
			}
			return false
		}
		for _, n := range u.body {
			if n != nil {
				ast.Inspect(n, visit)
			}
		}
	}
}
