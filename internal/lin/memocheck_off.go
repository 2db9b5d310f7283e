//go:build !memocheck

package lin

import (
	"repro/internal/adt"
	"repro/internal/trace"
)

// memocheckEnabled gates the digest-collision audit (DESIGN.md decision
// 7 risk): the default build compiles the audit away, so the hot path
// stays allocation-free. Build with -tags memocheck to store the full
// identity beside every 128-bit digest the engines deduplicate on and
// count collisions; the tagged tests assert the count is zero.
const memocheckEnabled = false

// memoAudit is the no-op audit table of the default build.
type memoAudit struct{}

func (memoAudit) reset(bool)                                                              {}
func (memoAudit) note(trace.Digest, adt.State, []trace.Sym, []trace.Value, []trace.Value) {}

// MemoCollisions reports digest collisions observed by the frontier
// engine; always zero without the memocheck build tag (the audit is
// compiled out).
func MemoCollisions() uint64 { return 0 }

// MemoHits reports the audited digest hits under the position-free and
// the ordered identity; always zero without the memocheck build tag.
func MemoHits() (free, ordered uint64) { return 0, 0 }

// auditTransition is the no-op transition-memo audit of the default
// build.
func auditTransition(adt.Folder, adt.State, trace.Value, *transition) {}

// TransitionAudit reports the audited transition-memo hits and their
// mismatches; always zero without the memocheck build tag.
func TransitionAudit() (hits, mismatches uint64) { return 0, 0 }

// classicalAudit is the no-op audit table of the default build for the
// classical checker's memo.
type classicalAudit struct{}

func (s *classicalSearcher) auditInsert(classicalKey, adt.State) {}
func (s *classicalSearcher) auditHit(classicalKey, adt.State)    {}

// ClassicalMemoCollisions reports digest collisions observed in the
// classical checker's memo tables; always zero without the memocheck
// build tag.
func ClassicalMemoCollisions() uint64 { return 0 }
