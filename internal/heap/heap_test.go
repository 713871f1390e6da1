package heap

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pmsf/internal/rng"
)

func TestPushPopOrdered(t *testing.T) {
	h := New(10)
	keys := []float64{5, 1, 9, 3, 7}
	for i, k := range keys {
		h.Push(int32(i), k, int32(100+i))
	}
	want := []struct {
		item int32
		key  float64
	}{{1, 1}, {3, 3}, {0, 5}, {4, 7}, {2, 9}}
	for _, w := range want {
		item, key, pay := h.PopMin()
		if item != w.item || key != w.key || pay != 100+w.item {
			t.Fatalf("pop = (%d,%g,%d), want (%d,%g,%d)", item, key, pay, w.item, w.key, 100+w.item)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty")
	}
}

func TestPopProperty(t *testing.T) {
	f := func(raw []float64) bool {
		// Deduplicate item keys don't matter; items are indices.
		if len(raw) > 200 {
			raw = raw[:200]
		}
		for i, v := range raw {
			if math.IsNaN(v) {
				raw[i] = float64(i)
			}
		}
		h := New(len(raw))
		for i, k := range raw {
			h.Push(int32(i), k, 0)
		}
		var popped []float64
		for h.Len() > 0 {
			_, k, _ := h.PopMin()
			popped = append(popped, k)
		}
		if len(popped) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(popped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10, 1)
	h.Push(1, 20, 2)
	h.Push(2, 30, 3)
	if !h.DecreaseKey(2, 5, 99) {
		t.Fatal("decrease to 5 rejected")
	}
	if h.DecreaseKey(2, 50, 0) {
		t.Fatal("increase accepted")
	}
	// An equal key decreases only with a smaller payload.
	if h.DecreaseKey(2, 5, 100) || !h.DecreaseKey(2, 5, 42) {
		t.Fatal("equal key not ordered by payload")
	}
	// Equal keys pop in payload order, not item order.
	h.DecreaseKey(1, 5, 7)
	item, key, pay := h.PopMin()
	if item != 1 || key != 5 || pay != 7 {
		t.Fatalf("pop = (%d,%g,%d), want (1,5,7)", item, key, pay)
	}
	item, key, pay = h.PopMin()
	if item != 2 || key != 5 || pay != 42 {
		t.Fatalf("pop = (%d,%g,%d), want (2,5,42)", item, key, pay)
	}
}

func TestPushOrDecrease(t *testing.T) {
	h := New(2)
	h.PushOrDecrease(0, 10, 1)
	h.PushOrDecrease(0, 5, 2)  // decrease
	h.PushOrDecrease(0, 50, 3) // no-op
	item, key, pay := h.PopMin()
	if item != 0 || key != 5 || pay != 2 {
		t.Fatalf("pop = (%d,%g,%d), want (0,5,2)", item, key, pay)
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate push did not panic")
		}
	}()
	h := New(2)
	h.Push(0, 1, 0)
	h.Push(0, 2, 0)
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty pop did not panic")
		}
	}()
	New(1).PopMin()
}

func TestContains(t *testing.T) {
	h := New(3)
	h.Push(1, 5, 0)
	if !h.Contains(1) || h.Contains(0) || h.Contains(2) {
		t.Fatal("contains wrong")
	}
	h.PopMin()
	if h.Contains(1) {
		t.Fatal("popped item still contained")
	}
}

func TestReset(t *testing.T) {
	h := New(5)
	for i := int32(0); i < 5; i++ {
		h.Push(i, float64(i), 0)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset left items")
	}
	for i := int32(0); i < 5; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d contained after reset", i)
		}
	}
	// Reusable after reset.
	h.Push(3, 1, 7)
	item, _, pay := h.PopMin()
	if item != 3 || pay != 7 {
		t.Fatal("heap unusable after reset")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	h := New(10)
	for i := int32(9); i >= 0; i-- {
		h.Push(i, 1.0, 0)
	}
	for want := int32(0); want < 10; want++ {
		item, _, _ := h.PopMin()
		if item != want {
			t.Fatalf("equal keys popped %d before %d", item, want)
		}
	}
}

// TestRandomizedWorkload cross-checks a long random mixed workload
// against a naive reference implementation.
func TestRandomizedWorkload(t *testing.T) {
	const n = 300
	r := rng.New(8)
	h := New(n)
	ref := map[int32]float64{}

	refMin := func() int32 {
		best := int32(-1)
		for item, k := range ref {
			if best < 0 || k < ref[best] || (k == ref[best] && item < best) {
				best = item
			}
		}
		return best
	}

	for step := 0; step < 20_000; step++ {
		switch r.Intn(3) {
		case 0: // push
			item := int32(r.Intn(n))
			if _, ok := ref[item]; !ok {
				k := r.Float64()
				h.Push(item, k, int32(step))
				ref[item] = k
			}
		case 1: // decrease
			item := int32(r.Intn(n))
			if k, ok := ref[item]; ok {
				nk := k * r.Float64()
				if h.DecreaseKey(item, nk, int32(step)) {
					ref[item] = nk
				}
			}
		case 2: // pop
			if len(ref) > 0 {
				want := refMin()
				item, key, _ := h.PopMin()
				if item != want || key != ref[want] {
					t.Fatalf("step %d: pop (%d,%g), want (%d,%g)", step, item, key, want, ref[want])
				}
				delete(ref, item)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: len %d, ref %d", step, h.Len(), len(ref))
		}
	}
}

func TestBinaryAccessors(t *testing.T) {
	h := New(3)
	h.Push(2, 1.5, 7)
	if h.Key(2) != 1.5 || h.Payload(2) != 7 {
		t.Fatalf("accessors (%g,%d)", h.Key(2), h.Payload(2))
	}
}
