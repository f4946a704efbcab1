package cache

import "fmt"

// Stacks is the checkpoint layout of every set-associative structure:
// all stacks' entries MRU→LRU, concatenated in stack order into Items,
// with Lens[i] the length of stack i — two flat slices instead of one
// heap slice per set. Push and Split are the only code that knows it.
type Stacks[T any] struct {
	Items []T
	Lens  []uint16
}

// MakeStacks returns empty Stacks with room for n stacks of items
// entries in total.
func MakeStacks[T any](n, items int) Stacks[T] {
	return Stacks[T]{Items: make([]T, 0, items), Lens: make([]uint16, 0, n)}
}

// Push appends a stack of n zero entries and returns it for the caller
// to fill, MRU first; it is valid until the next Push.
func (s *Stacks[T]) Push(n int) []T {
	s.Lens = append(s.Lens, uint16(n))
	s.Items = append(s.Items, make([]T, n)...)
	return s.Items[len(s.Items)-n:]
}

// Split checks that s holds exactly n stacks of at most max entries each
// whose lengths account for every item, and returns a function yielding
// the stacks in order, each a capacity-capped view of Items.
func (s Stacks[T]) Split(n, max int) (next func() []T, err error) {
	if len(s.Lens) != n {
		return nil, fmt.Errorf("state has %d stacks, want %d", len(s.Lens), n)
	}
	total := 0
	for i, l := range s.Lens {
		if int(l) > max {
			return nil, fmt.Errorf("state stack %d holds %d entries > %d", i, l, max)
		}
		total += int(l)
	}
	if total != len(s.Items) {
		return nil, fmt.Errorf("state stacks hold %d entries, %d items present", total, len(s.Items))
	}
	off, i := 0, 0
	return func() []T {
		end := off + int(s.Lens[i])
		stack := s.Items[off:end:end]
		off, i = end, i+1
		return stack
	}, nil
}
