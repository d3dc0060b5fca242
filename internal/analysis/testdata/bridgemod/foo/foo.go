// Package foo keeps its key's id unexported; only its tests read it.
package foo

// Key names one thing by an id callers cannot see.
type Key struct{ id int }

// New is the key for id.
func New(id int) Key { return Key{id: id} }

// Next is the key after k.
func (k Key) Next() Key { return Key{id: k.id + 1} }
