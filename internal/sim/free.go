package sim

// Free is a LIFO free list of recycled objects: the one reuse rule every
// pooled kind in this repository follows. Take hands back the object Put
// most recently, so the same object returns at the same moment in every
// run of a seed. The zero value is an empty, unbounded list.
type Free[T any] struct {
	items []*T
	// Max caps the list; Put drops objects beyond it for the garbage
	// collector. Max <= 0 means unbounded.
	Max int
}

// Take pops the most recently Put object, or returns nil if the list is
// empty. The popped slot is cleared so the list does not pin the object.
func (f *Free[T]) Take() *T {
	n := len(f.items)
	if n == 0 {
		return nil
	}
	x := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return x
}

// Put pushes x and reports whether it was kept; a full list drops it.
func (f *Free[T]) Put(x *T) bool {
	if f.Max > 0 && len(f.items) >= f.Max {
		return false
	}
	f.items = append(f.items, x)
	return true
}

// Len returns the number of objects on the list.
func (f *Free[T]) Len() int { return len(f.items) }
