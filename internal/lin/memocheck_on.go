//go:build memocheck

package lin

import (
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/adt"
	"repro/internal/trace"
)

// The memocheck build: every digest the production engines deduplicate
// on also stores the full identity it stands for, and every digest hit
// re-derives the identity and compares. A mismatch means two distinct
// search states collided in the 128-bit digest space — the residual
// soundness risk of DESIGN.md decision 7 — and increments a process-wide
// collision counter, which the tagged tests assert is zero. Every
// transition-memo hit is recomputed by the folder the same way
// (decision 32).
const memocheckEnabled = true

var (
	memoCollisions atomic.Uint64
	memoHits       [2]atomic.Uint64 // under the position-free (0) and the ordered (1) identity
)

// MemoCollisions reports digest collisions observed by the frontier
// engine (lin's and slin's Check and Sessions) since process start.
func MemoCollisions() uint64 { return memoCollisions.Load() }

// MemoHits reports the audited digest hits — a digest met again, its
// identity compared — under the position-free and the ordered identity
// since process start.
func MemoHits() (free, ordered uint64) { return memoHits[0].Load(), memoHits[1].Load() }

// memoAudit shadows the digests one response's expansion deduplicates
// on — the visited set of the extension searches and the successor set,
// one identity space (decision 20) — with the identities they stand for.
type memoAudit struct {
	ids     map[trace.Digest]string
	ordered bool
}

func (a *memoAudit) reset(ordered bool) { a.ids, a.ordered = map[trace.Digest]string{}, ordered }

// note records that dig stands for the configuration (end state, entries
// syms[i] linearized to outs[i], and under the ordered identity its
// chain), counting a hit if dig was met before and a collision if it
// stood for another configuration. The identity sorts the entries: equal
// symbols sit in insertion order in a configuration.
func (a *memoAudit) note(dig trace.Digest, end adt.State, syms []trace.Sym, outs []trace.Value, chain []trace.Value) {
	entries := make([]string, len(syms))
	for i, sym := range syms {
		entries[i] = strconv.Itoa(int(sym)) + ":" + string(outs[i])
	}
	slices.Sort(entries)
	id := string(end) + "\x00" + strings.Join(entries, "\x00") + "\x01" + strings.Join(chain, "\x00")
	if prev, ok := a.ids[dig]; ok {
		if a.ordered {
			memoHits[1].Add(1)
		} else {
			memoHits[0].Add(1)
		}
		if prev != id {
			memoCollisions.Add(1)
		}
		return
	}
	a.ids[dig] = id
}

var memoTransHits, memoTransMismatches atomic.Uint64

// TransitionAudit reports the transition-memo hits since process start
// and how many of them disagreed with the folder's own answer.
func TransitionAudit() (hits, mismatches uint64) {
	return memoTransHits.Load(), memoTransMismatches.Load()
}

// auditTransition recomputes a memo hit for the probe (st, in) — the
// output, and the successor state and its hash once they are stored —
// and counts a mismatch if the folder answers otherwise.
func auditTransition(f adt.Folder, st adt.State, in trace.Value, t *transition) {
	memoTransHits.Add(1)
	ok := f.Out(st, in) == t.out
	if t.stepped {
		next := f.Step(st, in)
		ok = ok && next == t.next && trace.HashString(string(next)) == t.nextH
	}
	if !ok {
		memoTransMismatches.Add(1)
	}
}

var classicalCollisions, classicalHits atomic.Uint64

// ClassicalMemoCollisions reports digest collisions observed in the
// classical checker's memo tables since process start.
func ClassicalMemoCollisions() uint64 { return classicalCollisions.Load() }

// classicalAudit shadows one classical searcher's failed-set with the
// exact placed set and folded state each key's two digests stand for
// (decision 13).
type classicalAudit struct {
	keys map[classicalKey]string
}

// identity is the exact search state a memo key stands for: the placed
// operations, then the folded state.
func (s *classicalSearcher) identity(st adt.State) string {
	var b strings.Builder
	for j := 0; j < len(s.ops); j++ {
		if s.placed.Has(j) {
			b.WriteString(strconv.Itoa(j))
			b.WriteByte(',')
		}
	}
	b.WriteByte('\x00')
	b.WriteString(string(st))
	return b.String()
}

func (s *classicalSearcher) auditInsert(k classicalKey, st adt.State) {
	if s.audit.keys == nil {
		s.audit.keys = map[classicalKey]string{}
	}
	full := s.identity(st)
	if prev, ok := s.audit.keys[k]; ok && prev != full {
		classicalCollisions.Add(1)
		return
	}
	s.audit.keys[k] = full
}

func (s *classicalSearcher) auditHit(k classicalKey, st adt.State) {
	classicalHits.Add(1)
	if prev, ok := s.audit.keys[k]; ok && prev != s.identity(st) {
		classicalCollisions.Add(1)
	}
}
