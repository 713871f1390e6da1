package par

import "testing"

func TestExclusiveSumInt64(t *testing.T) {
	a := []int64{3, 1, 4, 1, 5}
	total := ExclusiveSumInt64(a)
	want := []int64{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d, want 14", total)
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], want[i])
		}
	}
}

func TestPackIndices(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		const n = 997
		team := NewTeam(p)
		got := team.PackIndices(n, func(i int) bool { return i%3 == 0 })
		team.Close()
		want := 0
		for i := 0; i < n; i += 3 {
			if int(got[want]) != i {
				t.Fatalf("p=%d: got[%d] = %d, want %d", p, want, got[want], i)
			}
			want++
		}
		if len(got) != want {
			t.Fatalf("p=%d: packed %d indices, want %d", p, len(got), want)
		}
	}
	team := NewTeam(4)
	defer team.Close()
	if got := team.PackIndices(0, func(int) bool { return true }); len(got) != 0 {
		t.Fatalf("empty pack returned %d entries", len(got))
	}
	if got := team.PackIndices(100, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("all-false pack returned %d entries", len(got))
	}
}
