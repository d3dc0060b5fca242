package mlearn

import (
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n zeroed elements that end where a PROT_NONE page
// begins: touching the element after the last faults.
func guarded[T float64 | uint64](t *testing.T, n int) []T {
	t.Helper()
	page := os.Getpagesize()
	size := (n*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	guard := size - page
	if err := syscall.Mprotect(mem[guard:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[guard-n*8])), n)
}

// faults runs f and returns the address it faulted at, or 0.
func faults(f func()) (addr uintptr) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if err, ok := recover().(interface{ Addr() uintptr }); ok {
			addr = err.Addr()
		} else if err != nil {
			panic(err)
		}
	}()
	f()
	return 0
}

// TestSMOKernelsStayInBounds puts the padded end of f (capacity l4), of
// the kernel matrix (3 spare floats after the last row) and of every
// index set against a PROT_NONE page and runs both passes of every row
// pass the CPU has on the last row, where their blocks reach furthest: a
// read or write past the padding faults. Where l4 is not a multiple of 8
// (l = 1-4, 9, 73, 130) the AVX-512 kernels' last block is a masked
// 4-row tail whose upper lanes lie on the guard page.
func TestSMOKernelsStayInBounds(t *testing.T) {
	forEachRowPass(t, requireKernelsStayInBounds)
}

func requireKernelsStayInBounds(t *testing.T) {
	for _, l := range kernelRows {
		rng := rand.New(rand.NewSource(int64(l)))
		l4, words := (l+3)&^3, (l+63)/64
		k := &Matrix{Rows: l, Cols: l, Data: guarded[float64](t, l*l+l4-l)[:l*l]}
		for i := range k.Data {
			k.Data[i] = rng.Float64()
		}
		s := &smoSolver{l: l, k: k, f: guarded[float64](t, l4)[:l], c: 1, tol: 1e-3,
			upP: guarded[uint64](t, words), lowP: guarded[uint64](t, words),
			upN: guarded[uint64](t, words), lowN: guarded[uint64](t, words)}
		for t := range s.f {
			s.f[t] = rng.NormFloat64()
		}
		for _, set := range [][]uint64{s.upP, s.lowP, s.upN, s.lowN} {
			for t := 0; t < l; t++ {
				set[t>>6] |= 1 << (t & 63)
			}
		}
		last := s.k.Row(l - 1)
		if addr := faults(func() { s.updateRows(last, last, 0.5, -0.25) }); addr != 0 {
			t.Fatalf("l=%d: the update pass touched %#x, past the padding", l, addr)
		}
		if addr := faults(func() { s.secondOrderJ(l-1, s.gmaxP, s.lowP, 0) }); addr != 0 {
			t.Fatalf("l=%d: the select pass touched %#x, past the padding", l, addr)
		}
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(s.f)), l4*8)
		if faults(func() { _ = *(*float64)(end) }) == 0 {
			t.Fatalf("l=%d: the page after f does not fault", l)
		}
	}
}
