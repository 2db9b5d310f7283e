package smr

// window holds per-slot state for the slots from a low-water mark up, in
// a ring indexed by slot: slot s is at buf[s mod len(buf)] while
// lo ≤ s < lo+len(buf). Setting a slot at or past the end doubles the
// ring until the slot fits, so capacity is never a correctness
// condition, and a slot's entry is the zero T until it is set. Moving the
// mark (trim) zeroes what falls below it, and the storage is reused: a
// window whose mark follows the log tip stops allocating once it has
// grown to the span it needs.
//
// A window spans every slot from its mark to the highest slot set, in use
// or not, where a map keyed by slot holds only the slots in use. Under
// compaction the mark follows the tip and the two hold about as much; the
// window holds more only where such a map grows with the run too —
// compaction off, or an idle client that stops learning and pins a mark —
// by the slots between the mark and the tip rather than the ones in use.
// The recorder also queues each client's submissions in one, indexed by
// submission count.
type window[T any] struct {
	lo  int // the mark: slots below it are gone
	hi  int // one past the highest slot set, at least lo
	buf []T // the ring, its length 0 or a power of two
}

// minWindow is a ring's first length.
const minWindow = 16

// get returns slot s's entry: the zero T below the mark or past the end.
func (w *window[T]) get(s int) T {
	if s < w.lo || s >= w.lo+len(w.buf) {
		var zero T
		return zero
	}
	return w.buf[s&(len(w.buf)-1)]
}

// at returns slot s's entry to read or set, growing the ring until it
// holds s; nil below the mark. The pointer is good until the ring next
// grows.
func (w *window[T]) at(s int) *T {
	if s < w.lo {
		return nil
	}
	if s >= w.lo+len(w.buf) {
		w.grow(s)
	}
	if s >= w.hi {
		w.hi = s + 1
	}
	return &w.buf[s&(len(w.buf)-1)]
}

// grow doubles the ring until slot s fits and moves the live span
// [lo, hi) to its new positions.
func (w *window[T]) grow(s int) {
	n := max(len(w.buf), minWindow)
	for s >= w.lo+n {
		n *= 2
	}
	buf := make([]T, n)
	for t := w.lo; t < w.hi; t++ {
		buf[t&(n-1)] = w.buf[t&(len(w.buf)-1)]
	}
	w.buf = buf
}

// trim moves the mark up to `to`, zeroing the entries of the slots that
// fall below it.
func (w *window[T]) trim(to int) {
	if to <= w.lo {
		return
	}
	var zero T
	for s := w.lo; s < min(to, w.hi); s++ {
		w.buf[s&(len(w.buf)-1)] = zero
	}
	w.lo = to
	w.hi = max(w.hi, to)
}
