// Package types stands in for qpp/internal/types in the rowalloc fixture.
package types

// Value is one SQL value.
type Value struct {
	I int64
	S string
}
