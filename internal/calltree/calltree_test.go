package calltree

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs the Figure-2 style tree:
//
//	MAIN ─ FOO, BAR; FOO ─ BAZ
func buildSample(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	tr.MustAddPath("MAIN", "FOO", "BAZ")
	tr.MustAddPath("MAIN", "BAR")
	return tr
}

func TestAddPathAndLookup(t *testing.T) {
	tr := buildSample(t)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	n := tr.NodeByPath([]string{"MAIN", "FOO", "BAZ"})
	if n == nil || n.Name() != "BAZ" || n.Depth() != 2 {
		t.Fatalf("lookup failed: %+v", n)
	}
	if n.Parent().Name() != "FOO" {
		t.Error("parent wrong")
	}
	if got := n.PathString(); got != "MAIN/FOO/BAZ" {
		t.Errorf("PathString = %q", got)
	}
	if tr.NodeByPath([]string{"MAIN", "GHOST"}) != nil {
		t.Error("lookup of absent path should be nil")
	}
	// Re-adding an existing path is idempotent.
	tr.MustAddPath("MAIN", "FOO")
	if tr.Len() != 4 {
		t.Error("re-adding existing path changed node count")
	}
	if _, err := tr.AddPath(nil); err == nil {
		t.Error("empty path must be rejected")
	}
}

func TestTraversalOrder(t *testing.T) {
	tr := buildSample(t)
	var names []string
	for _, n := range tr.Nodes() {
		names = append(names, n.Name())
	}
	want := []string{"MAIN", "FOO", "BAZ", "BAR"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("pre-order = %v, want %v", names, want)
	}
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0].Name() != "BAZ" || leaves[1].Name() != "BAR" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestPathIdentityDistinguishesHomonyms(t *testing.T) {
	// Two nodes named "Mult" under different parents are distinct.
	tr := New()
	a := tr.MustAddPath("main", "solverA", "Mult")
	b := tr.MustAddPath("main", "solverB", "Mult")
	if a == b || a.Key() == b.Key() {
		t.Error("same-name nodes under different parents must be distinct")
	}
	if got := len(tr.NodesByName("Mult")); got != 2 {
		t.Errorf("NodesByName = %d, want 2", got)
	}
}

func TestEncodePathInjective(t *testing.T) {
	if EncodePath([]string{"a/b"}) == EncodePath([]string{"a", "b"}) {
		t.Error("separator collision")
	}
	if EncodePath([]string{"ab", "c"}) == EncodePath([]string{"a", "bc"}) {
		t.Error("boundary collision")
	}
}

func TestUnionAndIntersect(t *testing.T) {
	a := New()
	a.MustAddPath("main", "foo")
	a.MustAddPath("main", "bar")
	b := New()
	b.MustAddPath("main", "bar")
	b.MustAddPath("main", "qux")

	u := Union(a, b)
	if u.Len() != 4 { // main, foo, bar, qux
		t.Errorf("union size = %d, want 4", u.Len())
	}
	i := Intersect(a, b)
	if i.Len() != 2 { // main, bar
		t.Errorf("intersect size = %d, want 2", i.Len())
	}
	if i.NodeByPath([]string{"main", "bar"}) == nil {
		t.Error("intersection missing shared node")
	}
	if i.NodeByPath([]string{"main", "foo"}) != nil {
		t.Error("intersection kept unshared node")
	}
}

func TestUnionAlgebraProperties(t *testing.T) {
	mk := func(paths [][]string) *Tree {
		tr := New()
		for _, p := range paths {
			if len(p) == 0 {
				continue
			}
			if _, err := tr.AddPath(p); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	a := mk([][]string{{"m", "x"}, {"m", "y", "z"}})
	b := mk([][]string{{"m", "y"}, {"m", "w"}})

	// Idempotence: A ∪ A == A.
	if !Union(a, a).Equal(a) {
		t.Error("union not idempotent")
	}
	// Commutativity on node sets.
	if !Union(a, b).Equal(Union(b, a)) {
		t.Error("union not commutative on node sets")
	}
	// Intersection is contained in both.
	i := Intersect(a, b)
	for _, n := range i.Nodes() {
		if !a.Contains(n.Key()) || !b.Contains(n.Key()) {
			t.Error("intersection contains foreign node")
		}
	}
	// A ∩ A == A, A ∩ (A ∪ B) == A.
	if !Intersect(a, a).Equal(a) {
		t.Error("intersection not idempotent")
	}
	if !Intersect(a, Union(a, b)).Equal(a) {
		t.Error("absorption law violated")
	}
}

func TestTreeSetAlgebraProperty(t *testing.T) {
	// Random path sets: |A ∪ B| + |A ∩ B| == |A| + |B| (with implicit
	// ancestor closure making both sides count closed sets).
	type pathSpec []uint8
	build := func(specs []pathSpec) *Tree {
		tr := New()
		for _, spec := range specs {
			if len(spec) == 0 {
				continue
			}
			path := make([]string, 0, len(spec)%4+1)
			for i := 0; i < len(spec)%4+1 && i < len(spec); i++ {
				path = append(path, string(rune('a'+spec[i]%5)))
			}
			if _, err := tr.AddPath(path); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	f := func(sa, sb []pathSpec) bool {
		a, b := build(sa), build(sb)
		u, i := Union(a, b), Intersect(a, b)
		return u.Len()+i.Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCopyIsolation(t *testing.T) {
	tr := buildSample(t)
	cp := tr.Copy()
	cp.MustAddPath("MAIN", "NEW")
	if tr.Len() != 4 {
		t.Error("Copy shares structure")
	}
	if !tr.Equal(buildSample(t)) {
		t.Error("source mutated")
	}
}

func TestFilterKeysWithAncestors(t *testing.T) {
	tr := New()
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_128")
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_256")
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMSET", "Algorithm_MEMSET.block_128")

	keep := map[string]bool{}
	for _, n := range tr.Nodes() {
		if strings.HasSuffix(n.Name(), "block_128") {
			keep[n.Key()] = true
		}
	}
	out := tr.FilterKeys(keep, true)
	// 2 leaves + their 4 distinct ancestors (Base_CUDA, Algorithm, MEMCPY, MEMSET).
	if out.Len() != 6 {
		t.Errorf("filtered size = %d, want 6:\n%s", out.Len(), out.Render(nil))
	}
	if out.NodeByPath([]string{"Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_256"}) != nil {
		t.Error("block_256 should be filtered out")
	}
}

func TestFilterKeysWithoutAncestors(t *testing.T) {
	tr := buildSample(t)
	keep := map[string]bool{tr.NodeByPath([]string{"MAIN", "FOO", "BAZ"}).Key(): true}
	out := tr.FilterKeys(keep, false)
	if out.Len() != 1 {
		t.Fatalf("size = %d, want 1", out.Len())
	}
	if len(out.Roots()) != 1 || out.Roots()[0].Name() != "BAZ" {
		t.Error("kept node should be re-rooted")
	}
}

func TestRender(t *testing.T) {
	tr := buildSample(t)
	metric := func(n *Node) (string, bool) { return "0.001", true }
	out := tr.Render(metric)
	for _, want := range []string{"0.001 MAIN", "├─ 0.001 FOO", "│  └─ 0.001 BAZ", "└─ 0.001 BAR"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	bare := tr.Render(nil)
	if !strings.Contains(bare, "MAIN") || strings.Contains(bare, "0.001") {
		t.Errorf("bare render wrong:\n%s", bare)
	}
}

func TestSortChildren(t *testing.T) {
	tr := New()
	tr.MustAddPath("m", "z")
	tr.MustAddPath("m", "a")
	tr.SortChildren()
	kids := tr.Roots()[0].Children()
	names := []string{kids[0].Name(), kids[1].Name()}
	if !sort.StringsAreSorted(names) {
		t.Errorf("children not sorted: %v", names)
	}
}

func TestSubtree(t *testing.T) {
	tr := New()
	tr.MustAddPath("main", "solve", "mult")
	tr.MustAddPath("main", "solve", "add")
	tr.MustAddPath("main", "io")
	solve := tr.NodeByPath([]string{"main", "solve"})
	sub, err := tr.Subtree(solve)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Errorf("subtree size = %d, want 3", sub.Len())
	}
	if sub.NodeByPath([]string{"solve", "mult"}) == nil {
		t.Errorf("subtree should re-root at solve:\n%s", sub.Render(nil))
	}
	if sub.NodeByPath([]string{"main"}) != nil {
		t.Error("ancestors must be stripped")
	}
	// Foreign node rejected.
	other := New()
	foreign := other.MustAddPath("x")
	if _, err := tr.Subtree(foreign); err == nil {
		t.Error("foreign node must be rejected")
	}
	if _, err := tr.Subtree(nil); err == nil {
		t.Error("nil node must be rejected")
	}
}

func TestTreeDepth(t *testing.T) {
	tr := New()
	if tr.Depth() != -1 {
		t.Error("empty tree depth should be -1")
	}
	tr.MustAddPath("a", "b", "c")
	if tr.Depth() != 2 {
		t.Errorf("depth = %d, want 2", tr.Depth())
	}
}

func TestDOT(t *testing.T) {
	tr := buildSample(t)
	out := tr.DOT("calltree", func(n *Node) (string, bool) { return "1.0", true })
	for _, want := range []string{"digraph", "MAIN", "FOO", "->", "1.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// 4 nodes, 3 edges.
	if strings.Count(out, "->") != 3 {
		t.Errorf("edges = %d, want 3", strings.Count(out, "->"))
	}
	bare := tr.DOT("t", nil)
	if !strings.Contains(bare, "BAR") {
		t.Error("bare DOT broken")
	}
}

// refUnion is the AddPath-based union the structural merge replaced:
// every node's root path re-added in pre-order. With one tree it is the
// old Copy.
func refUnion(trees ...*Tree) *Tree {
	out := New()
	for _, t := range trees {
		for _, n := range t.Nodes() {
			out.MustAddPath(n.Path()...)
		}
	}
	return out
}

// randomTree grows a tree from random paths over names that contain the
// encoding's separators and digits, so homonyms and look-alike keys
// ("1:a/" vs "1", ":a/") meet.
func randomTree(rng *rand.Rand) *Tree {
	names := []string{"a", "b", "1", "12", "a/b", "/", ":", "1:", "2:ab", "x:1/y", ""}
	t := New()
	for p := rng.Intn(12); p >= 0; p-- {
		path := make([]string, 1+rng.Intn(5))
		for i := range path {
			path[i] = names[rng.Intn(len(names))]
		}
		t.MustAddPath(path...)
	}
	return t
}

// sameShape reports whether two trees agree on size, root order, every
// node's child order, keys and paths.
func sameShape(a, b *Tree) bool {
	if a.Len() != b.Len() || len(a.Roots()) != len(b.Roots()) {
		return false
	}
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		x, y := an[i], bn[i]
		if x.Key() != y.Key() || x.Name() != y.Name() || x.Depth() != y.Depth() || len(x.Children()) != len(y.Children()) {
			return false
		}
		if (x.Parent() == nil) != (y.Parent() == nil) || x.Parent() != nil && x.Parent().Key() != y.Parent().Key() {
			return false
		}
		if b.NodeByKey(x.Key()) != y {
			return false
		}
	}
	for i, r := range a.Roots() {
		if r.Key() != b.Roots()[i].Key() {
			return false
		}
	}
	return reflect.DeepEqual(a.Paths(), b.Paths())
}

func TestStructuralCopyAndUnionMatchAddPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		trees := make([]*Tree, 1+rng.Intn(4))
		for i := range trees {
			trees[i] = randomTree(rng)
		}
		if got, want := trees[0].Copy(), refUnion(trees[0]); !sameShape(got, want) {
			t.Fatalf("trial %d: Copy differs from the AddPath copy:\n%s\nwant\n%s", trial, got.Render(nil), want.Render(nil))
		}
		if got, want := Union(trees...), refUnion(trees...); !sameShape(got, want) {
			t.Fatalf("trial %d: Union differs from the AddPath union:\n%s\nwant\n%s", trial, got.Render(nil), want.Render(nil))
		}
		// The copy shares no node with its source.
		c := trees[0].Copy()
		for _, n := range c.Nodes() {
			if trees[0].NodeByKey(n.Key()) == n {
				t.Fatalf("trial %d: Copy shares node %q", trial, n.Key())
			}
		}
	}
}
