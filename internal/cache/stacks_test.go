package cache

import (
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotRestoreRoundTrip pins the flat layout end to end: a
// restored cache holds every set's blocks in the same MRU→LRU order and
// the same statistics, and restoring never reads past a set's ways.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := tiny()
	for tag := uint64(1); tag <= 3; tag++ {
		c.Install(addrFor(tag, 0), tag == 2, int(tag))
	}
	c.Install(addrFor(9, 2), false, 0)
	c.Access(addrFor(1, 0), true)

	st := c.Snapshot()
	if want := []uint16{2, 0, 1, 0}; !reflect.DeepEqual(st.Sets.Lens, want) {
		t.Fatalf("stack lengths %v, want %v", st.Sets.Lens, want)
	}
	d := tiny()
	if err := d.Restore(st); err != nil {
		t.Fatal(err)
	}
	for set := 0; set < 4; set++ {
		if got, want := d.BlocksInSet(set), c.BlocksInSet(set); !reflect.DeepEqual(got, want) {
			t.Errorf("set %d: restored %v, want %v", set, got, want)
		}
	}
	if d.Stats != c.Stats {
		t.Errorf("stats: restored %+v, want %+v", d.Stats, c.Stats)
	}
	// The restored sets are copies: filling d must not reach st.
	d.Install(addrFor(7, 0), false, 0)
	if st.Sets.Items[0].Tag != c.BlocksInSet(0)[0].Tag {
		t.Fatal("restore aliased the snapshot's blocks")
	}
}

// TestStacksSplitRejects pins the layout's validation: the stack count,
// the per-stack bound and the item total must all match.
func TestStacksSplitRejects(t *testing.T) {
	ok := Stacks[int]{Items: []int{1, 2, 3}, Lens: []uint16{2, 0, 1}}
	next, err := ok.Split(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	stacks := [][]int{next(), next(), next()}
	if want := [][]int{{1, 2}, {}, {3}}; !reflect.DeepEqual(stacks, want) {
		t.Fatalf("split %v, want %v", stacks, want)
	}
	if cap(stacks[0]) != 2 {
		t.Fatalf("stack 0 has capacity %d: appending would overwrite stack 2", cap(stacks[0]))
	}
	for _, tc := range []struct {
		name string
		s    Stacks[int]
		n    int
		want string
	}{
		{"too few stacks", ok, 4, "has 3 stacks, want 4"},
		{"too many stacks", ok, 2, "has 3 stacks, want 2"},
		{"stack over max", Stacks[int]{Items: []int{1, 2, 3}, Lens: []uint16{3, 0, 0}}, 3, "holds 3 entries > 2"},
		{"lengths past items", Stacks[int]{Items: []int{1, 2}, Lens: []uint16{2, 0, 1}}, 3, "hold 3 entries, 2 items"},
		{"items past lengths", Stacks[int]{Items: []int{1, 2, 3, 4}, Lens: []uint16{2, 0, 1}}, 3, "hold 3 entries, 4 items"},
	} {
		if _, err := tc.s.Split(tc.n, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
