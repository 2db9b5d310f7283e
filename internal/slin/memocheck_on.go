//go:build memocheck

package slin

import (
	"strings"
	"sync/atomic"

	"repro/internal/trace"
)

// The memocheck build: every digest ExpandFrontier's successor merge —
// the session's one deduplication point — merges on also stores the full
// (value, used) chain it stands for, and every digest hit compares the
// two (DESIGN.md decision 7's residual risk, measured instead of
// assumed).
const memocheckEnabled = true

var memoCollisions, memoHits atomic.Uint64

// MemoCollisions reports digest collisions observed by the session
// engine (Check and Sessions) since process start.
func MemoCollisions() uint64 { return memoCollisions.Load() }

// memoAudit shadows the digests one response's expansion of one
// combination merges on with the chains they stand for.
type memoAudit struct {
	ids map[trace.Digest]string
}

func (a *memoAudit) reset() { a.ids = map[trace.Digest]string{} }

// note records that dig stands for c's chain, counting a hit — and a
// collision if the digest already stood for another chain.
func (a *memoAudit) note(dig trace.Digest, cb *combo, c *scfg) {
	id := chainString(cb, c)
	if prev, ok := a.ids[dig]; ok {
		memoHits.Add(1)
		if prev != id {
			memoCollisions.Add(1)
		}
		return
	}
	a.ids[dig] = id
}

// chainString is the full identity behind a chain digest: every
// position's value, marked when claimed. A compacted prefix keeps its
// values; its positions are claimed exactly from the L anchor on.
func chainString(cb *combo, c *scfg) string {
	var b strings.Builder
	mark := func(v trace.Value, used bool) {
		b.WriteString(string(v))
		if used {
			b.WriteByte('*')
		}
		b.WriteByte(0)
	}
	for p := 0; p < c.pre.Len(); p++ {
		mark(c.pre.Vals[p], p >= c.base)
	}
	for k, sym := range c.syms {
		mark(cb.in.Value(sym), c.used[k])
	}
	return b.String()
}
