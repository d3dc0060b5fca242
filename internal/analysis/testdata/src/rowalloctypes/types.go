// Package types stands in for qpp/internal/types in the rowalloc fixture.
package types

// Value is one SQL value: a pointer word, a payload word and a kind, and
// not comparable.
type Value struct {
	_    [0]func()
	p    *byte
	n    uint64
	Kind uint8
}
