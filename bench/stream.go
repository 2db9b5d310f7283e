package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// The stream-overlap input: a deterministic long-pending-operation
// history over a 4-element set. Each round has k holder clients invoke
// has(v) and stay open while one driver client runs n sequential
// add/rm/has operations; the holders then respond with the membership
// they observed at their invocation, so the history is linearizable
// (every holder linearizes where it was invoked) while the exact checker
// has to carry k open operations across n others. Checker cost is a
// function of concurrently open operations (Hamza, "On the complexity of
// Linearizability"), so the shapes vary exactly k and n.

// streamShape is one (holders, driver ops) round shape.
type streamShape struct{ k, n int }

// streamShapes is the cycle every six rounds walk through.
var streamShapes = []streamShape{{1, 4}, {1, 16}, {2, 4}, {1, 32}, {2, 8}, {3, 4}}

func (s streamShape) String() string { return fmt.Sprintf("k%dn%d", s.k, s.n) }

const streamElems = 4

// streamAct is one action of the stream, in bench-local form; the
// adapter turns it into the checker's action type.
type streamAct struct {
	Client string
	Res    bool   // response (else invocation)
	Op     string // "add", "rm" or "has"
	Elem   string
	Tag    string // unique per operation
	Out    bool   // response output
}

// streamRound locates one round's actions in the stream.
type streamRound struct {
	Shape      streamShape
	Start, End int // actions [Start, End)
	// FirstHolderRes is the index of the first holder's response. The
	// driver never adds or removes a held element during the round, so
	// flipping a holder's output leaves no linearization.
	FirstHolderRes int
}

// genStream builds rounds rounds for seed. Equal arguments give equal
// streams.
func genStream(seed int64, rounds int) ([]streamAct, []streamRound) {
	r := rand.New(rand.NewSource(seed))
	member := [streamElems]bool{}
	var acts []streamAct
	var out []streamRound
	op := 0
	for i := 0; i < rounds; i++ {
		sh := streamShapes[i%len(streamShapes)]
		rd := streamRound{Shape: sh, Start: len(acts)}
		type held struct {
			act  streamAct
			elem int
		}
		holders := make([]held, sh.k)
		for j := range holders {
			e := r.Intn(streamElems)
			a := streamAct{Client: "h" + strconv.Itoa(j), Op: "has", Elem: "e" + strconv.Itoa(e),
				Tag: strconv.Itoa(op), Out: member[e]}
			op++
			holders[j] = held{a, e}
			acts = append(acts, a)
		}
		var heldElem [streamElems]bool
		for _, h := range holders {
			heldElem[h.elem] = true
		}
		for j := 0; j < sh.n; j++ {
			e := r.Intn(streamElems)
			kind := r.Intn(4)
			// The driver never adds or removes a held element, so every
			// holder stays linearizable at every point of its window:
			// the frontier is as wide as the shape admits, and a
			// round's cost depends on (k, n), not on the seed's luck.
			for kind < 2 && heldElem[e] {
				e = r.Intn(streamElems)
			}
			a := streamAct{Client: "d", Elem: "e" + strconv.Itoa(e), Tag: strconv.Itoa(op)}
			op++
			switch kind {
			case 0:
				a.Op, a.Out = "add", !member[e]
				member[e] = true
			case 1:
				a.Op, a.Out = "rm", member[e]
				member[e] = false
			default:
				a.Op, a.Out = "has", member[e]
			}
			acts = append(acts, a)
			a.Res = true
			acts = append(acts, a)
		}
		rd.FirstHolderRes = len(acts)
		for _, h := range holders {
			h.act.Res = true
			acts = append(acts, h.act)
		}
		rd.End = len(acts)
		out = append(out, rd)
	}
	return acts, out
}

// corruptStream returns the stream up to the end of round i with that
// round's first holder response flipped: a history with no
// linearization.
func corruptStream(acts []streamAct, rounds []streamRound, i int) []streamAct {
	rd := rounds[i]
	bad := append([]streamAct(nil), acts[:rd.End]...)
	bad[rd.FirstHolderRes].Out = !bad[rd.FirstHolderRes].Out
	return bad
}

// streamFeedMetrics turns the traced repetition's per-Feed and per-round
// wall times into the streaming-checker layer metrics: the feed latency
// distribution, cost per operation by round shape, and the second half
// of the stream over the first (1.0 means cost does not depend on how
// much history came before).
func streamFeedMetrics(layer map[string]float64, rounds []streamRound, roundUs, feedUs []float64) {
	if p, err := percentile(feedUs, 50); err == nil {
		layer["lin.session.feed_p50_us"] = p
	}
	if p, err := percentile(feedUs, 99); err == nil {
		layer["lin.session.feed_p99_us"] = p
	}
	layer["lin.session.feed_max_us"] = slices.Max(feedUs)

	us := map[streamShape]float64{}
	ops := map[streamShape]float64{}
	var first, second float64
	for i, rd := range rounds {
		us[rd.Shape] += roundUs[i]
		ops[rd.Shape] += float64(rd.Shape.k + rd.Shape.n)
		if i < len(rounds)/2 {
			first += roundUs[i]
		} else {
			second += roundUs[i]
		}
	}
	for sh, t := range us {
		layer["lin.session.us_per_op."+sh.String()] = t / ops[sh]
	}
	if first > 0 {
		layer["lin.session.half_ratio"] = second / first
	}
}
