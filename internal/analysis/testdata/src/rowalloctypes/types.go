// Package types stands in for qpp/internal/types in the rowalloc fixture.
package types

// Value is one SQL value: a pointer word that also carries the kind, a
// payload word, and not comparable.
type Value struct {
	_ [0]func()
	p *byte
	n uint64
}
