//go:build !memocheck

package slin

import (
	"repro/internal/adt"
	"repro/internal/trace"
)

// memocheckEnabled gates the digest-collision audit of the session's
// visited set and successor merge; see internal/lin/memocheck_off.go for
// the scheme. The default build compiles the audit away.
const memocheckEnabled = false

// memoAudit is the no-op audit table of the default build.
type memoAudit struct{}

func (memoAudit) reset()                          {}
func (memoAudit) note(bool, trace.Digest, string) {}

func (*Session) identity(*combo, *scfg, []trace.Sym, []trace.Value, adt.State) string { return "" }

// MemoCollisions reports digest collisions observed by the session
// engine; always zero without the memocheck build tag.
func MemoCollisions() uint64 { return 0 }
