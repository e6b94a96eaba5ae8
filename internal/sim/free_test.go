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
	files, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !pointerList(field.Type) {
					continue
				}
				for _, name := range field.Names {
					if strings.HasPrefix(strings.ToLower(name.Name), "free") || strings.HasSuffix(name.Name, "Free") {
						t.Errorf("%s: field %s is a hand-rolled free list; use sim.Free", fset.Position(name.Pos()), name.Name)
					}
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no source files found")
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
