package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFree: Take hands objects back newest first and nil once the list is
// empty, clears the slot it pops, and a list at Max drops what is Put; a
// warm Put/Take cycle allocates nothing.
func TestFree(t *testing.T) {
	var f Free[int]
	if f.Take() != nil {
		t.Fatal("an empty list handed out an object")
	}
	a, b, c := new(int), new(int), new(int)
	for _, x := range []*int{a, b, c} {
		if !f.Put(x) {
			t.Fatal("an unbounded list dropped an object")
		}
	}
	for i, want := range []*int{c, b, a} {
		if got := f.Take(); got != want {
			t.Fatalf("take %d: got %p, want %p", i, got, want)
		}
		if slot := f.items[:len(f.items)+1][len(f.items)]; slot != nil {
			t.Fatalf("take %d left its object in the popped slot", i)
		}
	}
	if f.Take() != nil || f.Len() != 0 {
		t.Fatal("a drained list handed out an object")
	}

	bounded := Free[int]{Max: 2}
	kept := []bool{bounded.Put(a), bounded.Put(b), bounded.Put(c)}
	if kept[0] != true || kept[1] != true || kept[2] != false || bounded.Len() != 2 {
		t.Fatalf("a list with Max 2 kept %v, holds %d", kept, bounded.Len())
	}
	if bounded.Take() != b || bounded.Take() != a {
		t.Fatal("a full list did not keep its first two objects")
	}

	f.Put(a)
	if n := testing.AllocsPerRun(1000, func() { f.Put(f.Take()) }); n != 0 {
		t.Fatalf("a warm Put/Take cycle allocates %v objects, want 0", n)
	}
}

// TestOneFreeListType: every free list in the internal packages is a Free.
// A struct field named free* or *Free whose type is a pointer or a slice of
// pointers is a hand-rolled one, an intrusive link or a slice stack.
func TestOneFreeListType(t *testing.T) {
	eachField(t, func(pos token.Position, name string, typ ast.Expr) {
		if pointerList(typ) && (strings.HasPrefix(strings.ToLower(name), "free") || strings.HasSuffix(name, "Free")) {
			t.Errorf("%s: field %s is a hand-rolled free list; use sim.Free", pos, name)
		}
	})
}

// TestOneGatherType: every leader/joiner batch is a Gather; a holders int
// field other than Gather's own, which the walk must find, is hand-rolled.
func TestOneGatherType(t *testing.T) {
	found := 0
	eachField(t, func(pos token.Position, name string, typ ast.Expr) {
		if id, ok := typ.(*ast.Ident); ok && id.Name == "int" && name == "holders" {
			if found++; filepath.Base(filepath.Dir(pos.Filename)) != "sim" {
				t.Errorf("%s: field holders counts a hand-rolled gather's holders; use sim.Gather", pos)
			}
		}
	})
	if found != 1 {
		t.Fatalf("found %d holders fields, want Gather's one", found)
	}
}

// eachField calls check on every named struct field of every non-test
// source file in the internal packages.
func eachField(t *testing.T, check func(pos token.Position, name string, typ ast.Expr)) {
	files, err := filepath.Glob("../*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatal("no source files found", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						check(fset.Position(name.Pos()), name.Name, field.Type)
					}
				}
			}
			return true
		})
	}
}

// pointerList reports whether a field of type expr can hold a free list
// by hand: a pointer (an intrusive link) or a slice of pointers.
func pointerList(expr ast.Expr) bool {
	if arr, ok := expr.(*ast.ArrayType); ok && arr.Len == nil {
		expr = arr.Elt
	}
	_, ok := expr.(*ast.StarExpr)
	return ok
}
