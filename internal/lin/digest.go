package lin

import "math/bits"

// digestTable is the fast paths' one hash table (DESIGN.md, decision
// 24): open-addressed, linear-probing, eight bytes a slot, keyed by a
// fixed-seed 64-bit digest of a string and holding no string itself.
// The session and its core empty their tables when the session cuts
// (reset; DESIGN.md, decision 35), so they hold the stretch since the
// last quiescent cut, and the session's replay log of that stretch is
// the only per-action copy of the history.
// One table is used in one of two ways:
//
//   - as a digest set (add): a slot is a whole digest. Equal strings
//     always hit; unequal strings hit with probability ~n²/2⁶⁵ over n
//     inputs. It serves only the session's input distinctness
//     (Session.seen, decision 36), where a hit is only ever a FastExit:
//     a false alarm costs the fallback's exact replay, never a verdict,
//     and a reject never rests on it.
//   - as an exact index (get/put): a slot is the digest's upper half
//     beside a position in a slice the caller owns, and get confirms
//     each candidate through the caller's comparison against the string
//     stored there, so colliding digests only lengthen a probe.
//
// The digest is a fixed function of the string, so what a given trace
// costs — and whether it stays on the fast path — repeats run to run.
type digestTable struct {
	slots []uint64 // 0 is empty; len is a power of two
	shift uint     // 64 − log₂ len(slots)
	n     int
	// collide makes every string digest alike; only tests set it, to
	// prove the soundness lines above on tables where everything collides.
	collide bool
}

const (
	digestKey0 = 0x9e3779b97f4a7c15
	digestKey1 = 0xc2b2ae3d27d4eb4f
	// digestMinSlots is a table's first allocation: 128 bytes, enough for
	// the eight inputs of a short per-key history without growing.
	digestMinSlots = 16
)

// digest hashes s eight bytes at a time (multiply–xorshift per word,
// the length in the seed, a splitmix64-style finish). It never returns 0.
func (t *digestTable) digest(s string) uint64 {
	if t.collide {
		return 1
	}
	h := uint64(len(s))*digestKey1 ^ digestKey0
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * digestKey1
		h ^= h >> 32
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * uint(i))
		}
		h = (h ^ w) * digestKey1
		h ^= h >> 32
	}
	h *= digestKey0
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	if h == 0 {
		return 1
	}
	return h
}

// add inserts s's digest and reports whether it was already present.
func (t *digestTable) add(s string) (dup bool) {
	d := t.digest(s)
	t.reserve()
	mask := uint64(len(t.slots) - 1)
	for i := d >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case d:
			return true
		case 0:
			t.slots[i] = d
			t.n++
			return false
		}
	}
}

// get returns the position put stored for s: the first candidate (a
// slot whose digest half matches) at which same confirms that the
// caller's string is s.
func (t *digestTable) get(s string, same func(pos int) bool) (pos int, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	d := t.digest(s)
	mask := uint64(len(t.slots) - 1)
	for i := d >> t.shift; t.slots[i] != 0; i = (i + 1) & mask {
		if v := t.slots[i]; v>>32 == d>>32 && same(int(uint32(v))-1) {
			return int(uint32(v)) - 1, true
		}
	}
	return 0, false
}

// claim is get and, when get would find nothing, put, in one probe: it
// returns the position of the first candidate that same confirms, or
// stores pos for s where the probe ended.
func (t *digestTable) claim(s string, pos int, same func(pos int) bool) (found int, ok bool) {
	d := t.digest(s)
	t.reserve()
	mask := uint64(len(t.slots) - 1)
	i := d >> t.shift
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if v := t.slots[i]; v>>32 == d>>32 && same(int(uint32(v))-1) {
			return int(uint32(v)) - 1, true
		}
	}
	t.slots[i] = d&^0xffffffff | uint64(uint32(pos+1))
	t.n++
	return 0, false
}

// put records that s is stored at position pos (0 ≤ pos < 2³²−1) of the
// caller's slice. The caller has found s absent with get.
func (t *digestTable) put(s string, pos int) {
	d := t.digest(s)
	t.reserve()
	t.place(d&^0xffffffff | uint64(uint32(pos+1)))
	t.n++
}

// place stores slot value v (never 0) at the first free slot from its
// home: the digest's leading bits, which both kinds of slot keep.
func (t *digestTable) place(v uint64) {
	mask := uint64(len(t.slots) - 1)
	i := v >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = v
}

// reset empties the table in time proportional to its entries,
// amortized: a table at least an eighth full is cleared in place, and a
// sparser one — it grew in a longer stretch than the one it just held —
// is replaced by one sized for that many entries.
func (t *digestTable) reset() {
	if len(t.slots) <= max(digestMinSlots, 8*t.n) {
		clear(t.slots)
	} else {
		t.slots = make([]uint64, max(digestMinSlots, 1<<bits.Len(uint(2*t.n))))
		t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	}
	t.n = 0
}

// reserve keeps the table at most half full for one more entry, so an
// unsuccessful probe — every add of a fresh input is one — stays short.
// Homes are leading bits, so a slot's entries land in the two slots
// that replace it: refilling a doubled table reads and writes memory in
// order instead of scattering one cache miss an entry.
func (t *digestTable) reserve() {
	if 2*(t.n+1) <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]uint64, max(digestMinSlots, 2*len(old)))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, v := range old {
		if v != 0 {
			t.place(v)
		}
	}
}
