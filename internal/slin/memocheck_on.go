//go:build memocheck

package slin

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/adt"
	"repro/internal/trace"
)

// The memocheck build: every digest the session deduplicates on — the
// visited set of one response's extension searches and ExpandFrontier's
// successor merge — also stores the full identity it stands for, and
// every digest hit compares the two (DESIGN.md decision 7's residual
// risk, measured instead of assumed).
const memocheckEnabled = true

var (
	memoCollisions atomic.Uint64
	memoHits       [2]atomic.Uint64 // at the successor merge (0) and the visited set (1)
)

// MemoCollisions reports digest collisions observed by the session
// engine (Check and Sessions) since process start.
func MemoCollisions() uint64 { return memoCollisions.Load() }

// memoAudit shadows the digests one response's expansion of one
// combination deduplicates on with the identities they stand for, one
// table per deduplication point.
type memoAudit struct{ ids [2]map[trace.Digest]string }

func (a *memoAudit) reset() { a.ids = [2]map[trace.Digest]string{{}, {}} }

// note records that dig stands for identity id at the visited set (or at
// the successor merge), counting a hit — and a collision if the digest
// already stood for another identity there.
func (a *memoAudit) note(visited bool, dig trace.Digest, id string) {
	at := 0
	if visited {
		at = 1
	}
	if prev, ok := a.ids[at][dig]; ok {
		memoHits[at].Add(1)
		if prev != id {
			memoCollisions.Add(1)
		}
		return
	}
	a.ids[at][dig] = id
}

// identity is the full identity behind the digest of configuration c
// extended by the unclaimed appends ext (linearized to extOuts), ending
// in state end: the end state and the sorted claimable unclaimed (input,
// output) entries, which the retained suffix holds all of — or, when
// positional, every chain value marked when claimed (a compacted prefix
// is claimed exactly from the L anchor on).
func (s *Session) identity(cb *combo, c *scfg, ext []trace.Sym, extOuts []trace.Value, end adt.State) string {
	preN := c.pre.Len()
	if !s.positional {
		var entries []string
		for k := max(c.base-preN, 0); k < len(c.syms); k++ {
			if !c.used[k] {
				entries = append(entries, string(cb.in.Value(c.syms[k]))+"\x01"+string(c.outs[k]))
			}
		}
		for i, sym := range ext {
			entries = append(entries, string(cb.in.Value(sym))+"\x01"+string(extOuts[i]))
		}
		slices.Sort(entries)
		return string(end) + "\x00" + strings.Join(entries, "\x00")
	}
	var b strings.Builder
	mark := func(v trace.Value, used bool) {
		b.WriteString(string(v))
		if used {
			b.WriteByte('*')
		}
		b.WriteByte(0)
	}
	for p := 0; p < preN; p++ {
		mark(c.pre.Vals[p], p >= c.base)
	}
	for k, sym := range c.syms {
		mark(cb.in.Value(sym), c.used[k])
	}
	for _, sym := range ext {
		mark(cb.in.Value(sym), false)
	}
	return b.String()
}
