package telemetry

// ring is the package's one bounded drop-oldest buffer, shared by the
// epoch Ring and the SpanRecorder's completed records.
// It grows by append up to max entries, so it costs what it holds; once
// full, each push overwrites the oldest entry and counts the drop. It
// does not lock: an owner read from several goroutines holds its own
// mutex around every call.
type ring[T any] struct {
	buf     []T
	max     int
	start   int // index of the oldest entry once the ring has wrapped
	dropped uint64
}

// newRing builds an empty ring holding at most capacity entries (def
// when capacity <= 0). Nothing is allocated until the first push.
func newRing[T any](capacity, def int) ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	return ring[T]{max: capacity}
}

// push stores v, evicting the oldest entry if the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % r.max
	r.dropped++
}

// at returns the i-th held entry, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.start+i)%len(r.buf)] }

// from returns a fresh copy of the held entries from the i-th oldest
// on, or nil when there are none.
func (r *ring[T]) from(i int) []T {
	if i >= len(r.buf) {
		return nil
	}
	out := make([]T, len(r.buf)-i)
	for k := range out {
		out[k] = r.at(i + k)
	}
	return out
}

// reset replaces the contents with items, oldest first, and the drop
// count. The caller has checked that items fit.
func (r *ring[T]) reset(items []T, dropped uint64) {
	r.buf = append([]T(nil), items...)
	r.start = 0
	r.dropped = dropped
}
