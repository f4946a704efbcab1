package llc

import (
	"reflect"
	"strings"
	"testing"

	"nucasim/internal/dram"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
)

// smallCoop is a 4-core cooperative organization with 16 KB (64 sets)
// per core, small enough that a short random stream spills often.
func smallCoop(r *rng.Rand) *Cooperative {
	return NewCooperativeSized(4, dram.New(dram.PrivateConfig()), 16<<10, 4, DefaultLatencies(), r)
}

// drive issues n accesses of random cores to random blocks of 512 per
// core (eight times a core's capacity), about one in four a write.
func drive(org Organization, r *rng.Rand, n int) {
	for i := 0; i < n; i++ {
		core := r.Intn(4)
		addr := memaddr.Addr(uint64(r.Intn(512)) << 6).WithSpace(core)
		org.Access(core, addr, r.Intn(4) == 0, uint64(i)*10)
	}
}

// TestRestoreRefusesMismatch pins that a state of another build is
// refused with an error naming what differs: the array count, the core
// count, an array's geometry (naming that array), and a cooperative
// state that lost its neighbour stream.
func TestRestoreRefusesMismatch(t *testing.T) {
	mem := dram.New(dram.PrivateConfig())
	priv4 := table1Private(4, mem).Snapshot()
	shared4 := table1Shared(4, mem).Snapshot()
	coop := smallCoop(rng.New(1)).Snapshot()
	noStream := coop
	noStream.Stream = [4]uint64{}
	for _, tc := range []struct {
		name string
		org  interface{ Restore(State) error }
		s    State
		want string
	}{
		{"array count", table1Private(2, mem), priv4, "state holds 4 arrays, private has 2"},
		{"core count", table1Shared(2, mem), shared4, "state holds statistics of 4 cores, shared has 2"},
		{"geometry", NewPrivateSized(4, mem, 512<<10, 4, 14, "private"), priv4, "cache private-L3-0: state has 4096 stacks, want 2048"},
		{"no stream", smallCoop(rng.New(2)), noStream, "no neighbour stream"},
	} {
		if err := tc.org.Restore(tc.s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCoopRestoreSpillsAlike pins that a restored 4-core cooperative
// organization spills to the neighbours the original does: after the
// same accesses both hold the same blocks in the same arrays, with the
// same statistics. A copy restored under another neighbour stream
// diverges, so the check sees the stream.
func TestCoopRestoreSpillsAlike(t *testing.T) {
	orig := smallCoop(rng.New(7))
	drive(orig, rng.New(100), 20_000)
	snap, memSnap := orig.Snapshot(), orig.Memory().Snapshot()

	restored := smallCoop(rng.New(8))
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored.Memory().Restore(memSnap)
	if got := restored.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatal("a restored organization's snapshot differs from the one it restored")
	}
	other := snap
	other.Stream[0] ^= 1
	wrongStream := smallCoop(rng.New(9))
	if err := wrongStream.Restore(other); err != nil {
		t.Fatal(err)
	}
	wrongStream.Memory().Restore(memSnap)

	spills := orig.TotalStats().SpillsOut
	drive(orig, rng.New(200), 20_000)
	drive(restored, rng.New(200), 20_000)
	drive(wrongStream, rng.New(200), 20_000)
	if orig.TotalStats().SpillsOut == spills {
		t.Fatal("the continuation spilled nothing; the check would not see the stream")
	}
	if !reflect.DeepEqual(restored.Snapshot(), orig.Snapshot()) {
		t.Error("the restored organization diverged from the original")
	}
	if reflect.DeepEqual(wrongStream.Snapshot().Arrays, orig.Snapshot().Arrays) {
		t.Error("an organization under another neighbour stream holds the original's blocks")
	}
}
