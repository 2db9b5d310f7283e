package smr

import (
	"math/rand"
	"testing"
)

// held counts a window's slots that hold state: what len read on the map
// the window replaced.
func held[T comparable](w *window[T]) int {
	var zero T
	n := 0
	for s := w.lo; s < w.hi; s++ {
		if w.get(s) != zero {
			n++
		}
	}
	return n
}

// TestSlotWindow runs random set, read and trim sequences against a map
// oracle: sets near the mark and far past the end (growth), a mark that
// moves far past the ring's length (wrap-around), and reads below the
// mark, across the window, at every set slot's alias one ring length on,
// and far past the end. A window whose span stays small keeps a small
// ring, and reuses it however far its mark moves. (Mutants: a read that does not check the window's end; a
// trim that frees the slot at the new mark.)
func TestSlotWindow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	grew, wrapped := 0, 0
	for walk := 0; walk < 300; walk++ {
		var w window[int]
		oracle := map[int]int{}
		lo, reach, need := 0, 4+r.Intn(40), minWindow
		if r.Intn(2) == 0 {
			lo = r.Intn(1000)
			w.trim(lo)
		}
		check := func(s int) {
			if got := w.get(s); got != oracle[s] {
				t.Fatalf("walk %d: slot %d reads %d, want %d (mark %d, ring %d)", walk, s, got, oracle[s], w.lo, len(w.buf))
			}
		}
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 5:
				s := lo - 2 + r.Intn(reach+2)
				if r.Intn(20) == 0 {
					s = lo + 64 + r.Intn(400) // far past the end
				}
				size := len(w.buf)
				p := w.at(s)
				if s < lo {
					if p != nil {
						t.Fatalf("walk %d: slot %d below mark %d is settable", walk, s, lo)
					}
					continue
				}
				v := 1 + r.Intn(1<<20)
				*p, oracle[s] = v, v
				need = max(need, s-lo+1)
				if len(w.buf) > size {
					grew++
				}
			case op < 9:
				to := lo - 1 + r.Intn(6)
				w.trim(to)
				for ; lo < to; lo++ {
					delete(oracle, lo)
				}
				if lo >= len(w.buf) && len(w.buf) > 0 {
					wrapped++
				}
			default:
				check(lo + r.Intn(1<<30)) // far past the end
			}
			for s := lo - 3; s < w.hi+3; s++ {
				check(s)
			}
			for s := range oracle {
				check(s + len(w.buf))
			}
		}
		if len(w.buf) >= 2*need {
			t.Fatalf("walk %d: ring of %d where %d slots were the most it had to hold", walk, len(w.buf), need)
		}
	}
	t.Logf("%d growths, %d trims past a ring's length", grew, wrapped)
	if grew < 300 || wrapped < 3000 {
		t.Fatalf("walks too thin: %d growths, %d wrapped trims", grew, wrapped)
	}
	// A span that stays under 41 slots while the mark moves a million
	// slots on keeps the ring it grew first.
	var w window[Command]
	for s := 0; s < 1_000_000; s++ {
		*w.at(s) = "x"
		w.trim(s - 40)
	}
	if len(w.buf) != 64 {
		t.Fatalf("ring of %d for a span of 41, want 64", len(w.buf))
	}
}
