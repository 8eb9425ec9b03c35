package rma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"rma/internal/workload"
)

func TestPublicAPIQuickstart(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(42, 420); err != nil {
		t.Fatal(err)
	}
	v, ok := a.Find(42)
	if !ok || v != 420 {
		t.Fatalf("Find = (%d,%v)", v, ok)
	}
	if !a.Contains(42) || a.Contains(43) {
		t.Fatal("Contains wrong")
	}
	ok, err = a.Delete(42)
	if err != nil || !ok {
		t.Fatal("Delete failed")
	}
	if a.Size() != 0 {
		t.Fatal("size")
	}
}

func TestPublicOptions(t *testing.T) {
	for _, opts := range [][]Option{
		{},
		{WithSegmentCapacity(64)},
		{WithScanOrientedThresholds()},
		{WithSegmentCapacity(32), WithPageCapacity(128)},
	} {
		a, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		g := workload.NewUniform(1, 1<<30)
		for i := 0; i < 5000; i++ {
			if err := a.Insert(g.Next(), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if a.Size() != 5000 {
			t.Fatalf("size %d", a.Size())
		}
	}
	if _, err := New(WithSegmentCapacity(100)); err == nil {
		t.Fatal("invalid B accepted")
	}
}

// TestOptionSurfacePinned parses the package's own sources and pins the
// exported option constructors. Every knob multiplies the configurations
// the differential matrix must cover, so adding one has to be a
// deliberate edit here (and a new row in ordered_map_diff_test.go), not
// drift; the paper's ablation axes live on core.Config, not here.
func TestOptionSurfacePinned(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["rma"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "With") ||
				fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fd.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				got = append(got, fd.Name.Name)
			}
		}
	}
	slices.Sort(got)
	want := []string{
		"WithBackgroundRebalancing",
		"WithDurability",
		"WithLockFreeReads", // empty deprecated shim for the frozen bench/
		"WithPageCapacity",
		"WithScanOrientedThresholds",
		"WithSegmentCapacity",
		"WithWAL",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported option constructors:\n got %v\nwant %v", got, want)
	}
}

func TestPublicScanAndSum(t *testing.T) {
	a, err := New(WithSegmentCapacity(16), WithPageCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := a.Insert(int64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	cnt, sum := a.Sum(100, 199)
	if cnt != 100 {
		t.Fatalf("count %d", cnt)
	}
	want := int64(0)
	for i := 100; i < 200; i++ {
		want += int64(i * 10)
	}
	if sum != want {
		t.Fatalf("sum %d want %d", sum, want)
	}
	seen := 0
	a.ScanRange(0, 49, func(k, v int64) bool { seen++; return true })
	if seen != 50 {
		t.Fatalf("scan visited %d", seen)
	}
	mn, _ := a.Min()
	mx, _ := a.Max()
	if mn != 0 || mx != 1999 {
		t.Fatalf("Min/Max %d/%d", mn, mx)
	}
}

func TestPublicBulkLoadAndStats(t *testing.T) {
	a, err := New(WithSegmentCapacity(16), WithPageCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(workload.NewUniform(7, 1<<20), 3000)
	vals := make([]int64, len(keys))
	if err := a.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 3000 {
		t.Fatalf("size %d", a.Size())
	}
	s := a.Stats()
	if s.BulkLoads != 1 {
		t.Fatalf("BulkLoads %d", s.BulkLoads)
	}
	if a.Density() <= 0 || a.Density() > 1 {
		t.Fatalf("density %v", a.Density())
	}
	if a.FootprintBytes() <= 0 || a.Capacity() == 0 || a.SegmentCapacity() != 16 {
		t.Fatal("geometry accessors wrong")
	}
	// BulkUpdate: delete 100 existing, add 100 new.
	newKeys := workload.Keys(workload.NewUniform(8, 1<<20), 100)
	if err := a.BulkUpdate(newKeys, make([]int64, 100), keys[:100]); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesShareTheInterface(t *testing.T) {
	maps := []UpdatableMap{
		func() UpdatableMap { a, _ := New(WithSegmentCapacity(16), WithPageCapacity(64)); return a }(),
		NewABTree(16),
		NewARTTree(16),
	}
	g := workload.NewUniform(11, 1000)
	keys := workload.Keys(g, 2000)
	for _, m := range maps {
		for _, k := range keys {
			if err := m.InsertKV(k, workload.ValueFor(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// All implementations must agree on every aggregate.
	for lo := int64(0); lo < 1000; lo += 97 {
		hi := lo + 150
		c0, s0 := maps[0].Sum(lo, hi)
		for i, m := range maps[1:] {
			c, s := m.Sum(lo, hi)
			if c != c0 || s != s0 {
				t.Fatalf("map %d disagrees on Sum(%d,%d): (%d,%d) vs (%d,%d)", i+1, lo, hi, c, s, c0, s0)
			}
		}
	}
	// Delete parity.
	for _, k := range keys[:500] {
		r0, _ := maps[0].DeleteKey(k)
		for i, m := range maps[1:] {
			r, _ := m.DeleteKey(k)
			if r != r0 {
				t.Fatalf("map %d disagrees on Delete(%d)", i+1, k)
			}
		}
	}
	c0, _ := maps[0].SumAll()
	for i, m := range maps[1:] {
		if c, _ := m.SumAll(); c != c0 {
			t.Fatalf("map %d size diverged: %d vs %d", i+1, c, c0)
		}
	}
}

func TestDensePublic(t *testing.T) {
	keys := []int64{1, 2, 3, 5, 8}
	vals := []int64{10, 20, 30, 50, 80}
	d := NewDense(keys, vals)
	if v, ok := d.Find(5); !ok || v != 50 {
		t.Fatal("dense Find")
	}
	cnt, sum := d.Sum(2, 5)
	if cnt != 3 || sum != 100 {
		t.Fatalf("dense Sum = (%d,%d)", cnt, sum)
	}
	if d.Size() != 5 {
		t.Fatal("dense Size")
	}
}
