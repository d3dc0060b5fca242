package arena

import (
	"slices"
	"testing"
)

type pair struct {
	p *int
	n int
}

var (
	pairs = NewSlab[pair]()
	ints  = NewSlab[int]()
)

// TestNilArenaIsTheHeap: without an arena every method behaves as new,
// make and append do.
func TestNilArenaIsTheHeap(t *testing.T) {
	x := 7
	if p := pairs.New(nil, pair{&x, 3}); p.p != &x || p.n != 3 {
		t.Fatalf("New(nil) = %+v", *p)
	}
	if s := ints.Make(nil, 3); len(s) != 3 || cap(s) != 3 || s[0]|s[1]|s[2] != 0 {
		t.Fatalf("Make(nil, 3) = %v (cap %d)", s, cap(s))
	}
	if s := ints.Append(nil, []int{1}, 2, 3); !slices.Equal(s, []int{1, 2, 3}) {
		t.Fatalf("Append(nil) = %v", s)
	}
	if s := ints.Clone(nil, []int{4, 5}); !slices.Equal(s, []int{4, 5}) {
		t.Fatalf("Clone(nil) = %v", s)
	}
	if s := ints.Clone(nil, []int{}); s != nil {
		t.Fatalf("Clone of an empty slice = %#v, want nil", s)
	}
}

// TestArenaCarvesAndReleases: an arena hands out disjoint, zeroed memory,
// release clears and shows every stretch handed out, and the next use of
// a pooled arena reuses its chunks without allocating.
func TestArenaCarvesAndReleases(t *testing.T) {
	var pool Pool
	released := 0
	pool.Poison = func(region any) {
		switch r := region.(type) {
		case []int:
			for i := range r {
				if r[i] != 0 {
					t.Errorf("released int not cleared: %d", r[i])
				}
				r[i] = -1
				released++
			}
		case []pair:
			for i := range r {
				if r[i] != (pair{}) {
					t.Errorf("released pair not cleared: %+v", r[i])
				}
				r[i].n = -1
				released++
			}
		default:
			t.Errorf("unexpected region %T", region)
		}
	}
	use := func(a *Arena) (handed int) {
		x := 1
		var ps [100]*pair
		for i := range ps {
			ps[i] = pairs.New(a, pair{&x, i})
		}
		for i, p := range ps {
			if p.n != i || p.p != &x {
				t.Fatalf("pair %d overwritten: %+v", i, *p)
			}
		}
		var s []int
		for i := 0; i < 1000; i++ {
			s = ints.Append(a, s, i)
		}
		m := ints.Make(a, 50)
		for i, v := range m {
			if v != 0 {
				t.Fatalf("Make handed out a non-zero element %d: %d", i, v)
			}
		}
		for i, v := range s {
			if v != i {
				t.Fatalf("appended element %d = %d", i, v)
			}
		}
		c := ints.Clone(a, s[:10])
		c[0] = 99
		if s[0] != 0 {
			t.Fatal("Clone shares memory with its source")
		}
		return 100 + 1000 + 50
	}
	a := pool.Get()
	handed := use(a)
	pool.Put(a)
	if released < handed {
		t.Fatalf("release showed %d elements, %d were handed out", released, handed)
	}
	// A second round reads zeroes although the poison wrote -1 everywhere.
	a = pool.Get()
	use(a)
	pool.Put(a)

	pool.Poison = nil
	a = new(Arena)
	use(a)
	for _, st := range a.stores {
		if st != nil {
			st.release(nil)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		use(a)
		for _, st := range a.stores {
			if st != nil {
				st.release(nil)
			}
		}
	}); allocs > 1 { // x, which use's pairs point at
		t.Fatalf("a warm arena allocated %.0f times per use", allocs)
	}
}

// TestOversizedArenaIsDropped: an arena holding more than keepBytes is
// not pooled.
func TestOversizedArenaIsDropped(t *testing.T) {
	var pool Pool
	a := pool.Get()
	ints.Make(a, keepBytes) // keepBytes ints: 8×keepBytes bytes
	if a.bytes <= keepBytes {
		t.Fatalf("arena holds %d bytes after a %d-int make", a.bytes, keepBytes)
	}
	pool.Put(a)
	for i := 0; i < 4; i++ {
		if pool.Get() == a {
			t.Fatal("an arena over keepBytes went back to the pool")
		}
	}
}
