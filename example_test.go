package speclin_test

import (
	"context"
	"fmt"

	speclin "repro"
)

// agreed is a small fixed consensus trace: alice and bob propose
// concurrently and both decide alice's value. split is the same trace
// with bob deciding his own value instead.
var (
	agreed = speclin.Trace{
		speclin.Invoke("alice", 1, speclin.ProposeInput("blue")),
		speclin.Invoke("bob", 1, speclin.ProposeInput("green")),
		speclin.Response("alice", 1, speclin.ProposeInput("blue"), speclin.DecideOutput("blue")),
		speclin.Response("bob", 1, speclin.ProposeInput("green"), speclin.DecideOutput("blue")),
	}
	split = speclin.Trace{agreed[0], agreed[1], agreed[2],
		speclin.Response("bob", 1, speclin.ProposeInput("green"), speclin.DecideOutput("green"))}
)

// Check decides a whole trace in one call, as the quickstart's first
// check does.
func ExampleCheck() {
	spec := speclin.CheckSpec{Folder: speclin.ConsensusADT}
	for _, tr := range []speclin.Trace{agreed, split} {
		rep, err := speclin.Check(context.Background(), spec, tr)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s (%d nodes)\n", rep.Verdict, rep.Nodes)
	}
	// Output:
	// linearizable (4 nodes)
	// not linearizable (4 nodes)
}

// A Session is fed one action at a time and reports the verdict on the
// trace so far, as the quickstart's second check does.
func ExampleNewSession() {
	sess, err := speclin.NewSession(context.Background(), speclin.CheckSpec{Folder: speclin.ConsensusADT})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range split {
		if err := sess.Feed(a); err != nil {
			fmt.Println(err)
			return
		}
		rep, err := sess.Report()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("after %s %s: %s (%d nodes)\n", a.Kind, a.Client, rep.Verdict, rep.Nodes)
	}
	// Output:
	// after inv alice: linearizable (1 nodes)
	// after inv bob: linearizable (2 nodes)
	// after res alice: linearizable (3 nodes)
	// after res bob: not linearizable (4 nodes)
}
