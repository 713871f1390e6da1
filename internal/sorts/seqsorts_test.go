package sorts

import (
	"testing"
	"testing/quick"

	"pmsf/internal/rng"
)

func TestQuicksortProperty(t *testing.T) {
	f := func(a []int) bool {
		got := append([]int(nil), a...)
		Quicksort(got, intLess)
		return equal(got, sortedCopy(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRecursiveProperty(t *testing.T) {
	f := func(a []int) bool {
		got := append([]int(nil), a...)
		buf := make([]int, len(got))
		MergeRecursive(got, buf, intLess)
		return equal(got, sortedCopy(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuicksortAdversarial(t *testing.T) {
	// Sorted, reverse-sorted, all-equal, organ-pipe: the classic
	// quicksort killers; median-of-three must keep them O(n log n) (we
	// just check correctness and that it terminates promptly).
	n := 1 << 15
	inputs := map[string]func(i int) int{
		"sorted":     func(i int) int { return i },
		"reverse":    func(i int) int { return n - i },
		"equal":      func(int) int { return 7 },
		"organ-pipe": func(i int) int { return min(i, n-i) },
		"two-values": func(i int) int { return i & 1 },
	}
	for name, gen := range inputs {
		a := make([]int, n)
		for i := range a {
			a[i] = gen(i)
		}
		want := sortedCopy(a)
		Quicksort(a, intLess)
		if !equal(a, want) {
			t.Fatalf("%s: incorrect", name)
		}
	}
}

func TestMergeRecursiveStable(t *testing.T) {
	r := rng.New(1)
	a := make([]kv, 1000)
	for i := range a {
		a[i] = kv{k: r.Intn(10), seq: i}
	}
	buf := make([]kv, len(a))
	MergeRecursive(a, buf, func(x, y kv) bool { return x.k < y.k })
	for i := 1; i < len(a); i++ {
		if a[i-1].k == a[i].k && a[i-1].seq > a[i].seq {
			t.Fatalf("instability at %d", i)
		}
	}
}

func TestMergeRecursiveSmallBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MergeRecursive(make([]int, 50), make([]int, 10), intLess)
}

func TestAllSortsAgree(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{0, 1, 13, 100, 5000} {
		base := make([]int, n)
		for i := range base {
			base[i] = r.Intn(1000)
		}
		want := sortedCopy(base)
		type namedSort struct {
			name string
			run  func([]int)
		}
		sorts := []namedSort{
			{"insertion", func(a []int) { Insertion(a, intLess) }},
			{"bottom-up", func(a []int) { MergeBottomUp(a, make([]int, len(a)), intLess) }},
			{"recursive", func(a []int) { MergeRecursive(a, make([]int, len(a)), intLess) }},
			{"quick", func(a []int) { Quicksort(a, intLess) }},
			{"sample", func(a []int) { sampleSort(4, a, 1) }},
		}
		for _, s := range sorts {
			a := append([]int(nil), base...)
			s.run(a)
			if !equal(a, want) {
				t.Fatalf("n=%d: %s incorrect", n, s.name)
			}
		}
	}
}
