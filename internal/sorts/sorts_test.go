package sorts

import (
	"sort"
	"testing"
	"testing/quick"

	"pmsf/internal/par"
	"pmsf/internal/rng"
)

func intLess(a, b int) bool { return a < b }

// sampleSort runs SampleSort on a fresh team of p workers.
func sampleSort(p int, a []int, seed uint64) {
	team := par.NewTeam(p)
	defer team.Close()
	SampleSort(team, a, intLess, seed)
}

func sortedCopy(a []int) []int {
	out := append([]int(nil), a...)
	sort.Ints(out)
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertionProperty(t *testing.T) {
	f := func(a []int) bool {
		got := append([]int(nil), a...)
		Insertion(got, intLess)
		return equal(got, sortedCopy(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBottomUpProperty(t *testing.T) {
	f := func(a []int) bool {
		got := append([]int(nil), a...)
		buf := make([]int, len(got))
		MergeBottomUp(got, buf, intLess)
		return equal(got, sortedCopy(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBottomUpSizes(t *testing.T) {
	// Hit boundary sizes around the insertion base and power-of-two merge
	// widths.
	r := rng.New(1)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 64, 100, 1000, 4096, 4097} {
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(50)
		}
		want := sortedCopy(a)
		buf := make([]int, n)
		MergeBottomUp(a, buf, intLess)
		if !equal(a, want) {
			t.Fatalf("n=%d: not sorted", n)
		}
	}
}

type kv struct{ k, seq int }

func TestMergeBottomUpStable(t *testing.T) {
	r := rng.New(2)
	a := make([]kv, 2000)
	for i := range a {
		a[i] = kv{k: r.Intn(10), seq: i}
	}
	buf := make([]kv, len(a))
	MergeBottomUp(a, buf, func(x, y kv) bool { return x.k < y.k })
	for i := 1; i < len(a); i++ {
		if a[i-1].k == a[i].k && a[i-1].seq > a[i].seq {
			t.Fatalf("instability at %d: (%d,%d) before (%d,%d)",
				i, a[i-1].k, a[i-1].seq, a[i].k, a[i].seq)
		}
	}
}

func TestMergeBottomUpPanicsOnSmallBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with undersized buffer")
		}
	}()
	a := make([]int, 100)
	MergeBottomUp(a, make([]int, 10), intLess)
}

func TestSampleSortMatchesSequential(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{0, 1, 100, 1 << 14, 1<<15 + 13, 1 << 17} {
		for _, p := range []int{1, 2, 4, 8} {
			a := make([]int, n)
			for i := range a {
				a[i] = r.Intn(1 << 20)
			}
			want := sortedCopy(a)
			sampleSort(p, a, 42)
			if !equal(a, want) {
				t.Fatalf("n=%d p=%d: sample sort incorrect", n, p)
			}
		}
	}
}

func TestSampleSortSkewedKeys(t *testing.T) {
	// Heavily duplicated keys stress splitter selection and bucket skew.
	r := rng.New(5)
	n := 1 << 16
	a := make([]int, n)
	for i := range a {
		a[i] = r.Intn(3)
	}
	want := sortedCopy(a)
	sampleSort(8, a, 7)
	if !equal(a, want) {
		t.Fatal("sample sort incorrect on skewed keys")
	}
}

func TestSampleSortAllEqual(t *testing.T) {
	n := 1 << 15
	a := make([]int, n)
	for i := range a {
		a[i] = 7
	}
	sampleSort(8, a, 1)
	for _, v := range a {
		if v != 7 {
			t.Fatal("values corrupted")
		}
	}
}

func TestSampleSortAlreadySorted(t *testing.T) {
	n := 1 << 15
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	sampleSort(4, a, 9)
	for i := range a {
		if a[i] != i {
			t.Fatalf("a[%d] = %d", i, a[i])
		}
	}
}

// TestCountingGroup checks Grouper, the team-based counting sort the
// Bor-AL/ALM/FAL rounds run: a stable grouping of keys by value at
// every team size, with reuse of the grouper across calls.
func TestCountingGroup(t *testing.T) {
	r := rng.New(6)
	for _, p := range []int{1, 2, 4} {
		team := par.NewTeam(p)
		g := NewGrouper(p, team)
		for _, k := range []int{37, 5} {
			const n = 5000
			keys := make([]int32, n)
			for i := range keys {
				keys[i] = int32(r.Intn(k))
			}
			order, starts := make([]int32, n), make([]int64, k+1)
			g.Group(keys, k, order, starts)
			if starts[0] != 0 || starts[k] != int64(n) {
				t.Fatalf("p=%d k=%d: bad boundary starts", p, k)
			}
			seen := make([]bool, n)
			for grp := 0; grp < k; grp++ {
				for i := starts[grp]; i < starts[grp+1]; i++ {
					idx := order[i]
					if seen[idx] {
						t.Fatalf("p=%d k=%d: index %d appears twice", p, k, idx)
					}
					seen[idx] = true
					if keys[idx] != int32(grp) {
						t.Fatalf("p=%d k=%d: index %d in group %d has key %d", p, k, idx, grp, keys[idx])
					}
				}
				// Stability: indices within a group are increasing.
				for i := starts[grp] + 1; i < starts[grp+1]; i++ {
					if order[i-1] >= order[i] {
						t.Fatalf("p=%d k=%d: group %d not stable", p, k, grp)
					}
				}
			}
		}
		team.Close()
	}
}

func TestCountingGroupEmpty(t *testing.T) {
	team := par.NewTeam(4)
	defer team.Close()
	starts := []int64{9, 9, 9, 9, 9, 9}
	NewGrouper(4, team).Group(nil, 5, nil, starts)
	for _, s := range starts {
		if s != 0 {
			t.Fatalf("non-zero start in empty grouping: %v", starts)
		}
	}
}

func TestBucketOf(t *testing.T) {
	splitters := []int{10, 20, 30}
	cases := []struct{ v, want int }{
		{5, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := bucketOf(c.v, splitters, intLess); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
