package smr

import (
	"sort"
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// This file gives replicated-log commands a concrete interpretation as a
// keyed key-value store, used by the kvstore example, the E9/E12
// experiments and the sharded cluster: commands carry the key they
// operate on, ShardedCluster hash-partitions them by that key, and each
// keyed command projects onto a per-key read/write register operation so
// per-key histories can be checked linearizable (DESIGN.md, decision 10).

// cmdSep separates the fields of a KV command encoding. Keys, values
// and tags must not contain it: an embedded separator would change the
// field count and silently demote the command out of the KV grammar —
// losing keyed routing and per-key verification — so the constructors
// reject it (a caller bug, like a duplicate node ID).
const cmdSep = "\x1f"

func checkField(kind, field string) {
	if strings.Contains(field, cmdSep) {
		panic("smr: " + kind + " contains the reserved KV field separator \\x1f")
	}
}

// SetCmd encodes a KV write command. Values should be unique across a
// run, so that each key's history is in the register fast path's
// fragment (ShardedConfig.ExactCheck). The log itself does not need
// distinct entries: the recorder tells submissions apart by their slots
// (DESIGN.md, decision 30).
func SetCmd(key, value string) Command {
	checkField("key", key)
	checkField("value", value)
	return Command("set" + cmdSep + key + cmdSep + value)
}

// DelCmd encodes a KV delete command.
func DelCmd(key string) Command {
	checkField("key", key)
	return Command("del" + cmdSep + key)
}

// GetCmd encodes a KV read command. The tag distinguishes read
// occurrences in the key's history, as SetCmd's values distinguish
// writes (reads carry no unique value of their own).
func GetCmd(key, tag string) Command {
	checkField("key", key)
	checkField("tag", tag)
	return Command("get" + cmdSep + key + cmdSep + tag)
}

// cmdParts splits a KV command once into (kind, key, arg): the arg is
// the written value for "set", the occurrence tag for "get", empty for
// "del". ok is false outside the KV grammar.
func cmdParts(cmd Command) (kind, key, arg string, ok bool) {
	kind, rest, found := strings.Cut(string(cmd), cmdSep)
	if !found {
		return "", "", "", false
	}
	key, arg, hasArg := strings.Cut(rest, cmdSep)
	switch kind {
	case "set", "get":
		if hasArg && !strings.Contains(arg, cmdSep) {
			return kind, key, arg, true
		}
	case "del":
		if !hasArg {
			return kind, key, "", true
		}
	}
	return "", "", "", false
}

// CmdKey extracts the key a KV command operates on; ok is false for
// commands outside the KV grammar.
func CmdKey(cmd Command) (key string, ok bool) {
	_, key, _, ok = cmdParts(cmd)
	return key, ok
}

// ShardOf maps a key to a shard in [0, shards) by FNV-1a hash. Commands
// outside the KV grammar hash their whole encoding (no key to partition
// on, but routing stays deterministic). The hash is inlined so the
// per-command routing path allocates nothing.
func ShardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * fnvPrime32
	}
	return int(h % uint32(shards))
}

// RegisterInput projects a keyed command onto the per-key register ADT
// used by the history checker: a set is a write of its (unique) value, a
// get is a tagged read. Deletes and foreign commands do not project
// (ok=false) — the sharded history recorder requires projectable
// commands so per-key traces stay checkable.
func RegisterInput(cmd Command) (key string, in trace.Value, ok bool) {
	kind, key, arg, ok := cmdParts(cmd)
	if !ok {
		return "", "", false
	}
	in, ok = registerInput(kind, arg)
	return key, in, ok
}

// registerInput builds the register projection from pre-split parts.
func registerInput(kind, arg string) (in trace.Value, ok bool) {
	switch kind {
	case "set":
		return adt.WriteInput(trace.Value(arg)), true
	case "get":
		return adt.Tag(adt.ReadInput(), arg), true
	}
	return "", false
}

// isRegisterInput reports whether in is registerInput(kind, arg), which
// it builds on the stack: the result never leaves this frame.
func isRegisterInput(in trace.Value, kind, arg string) bool {
	want, ok := registerInput(kind, arg)
	return ok && in == want
}

// ApplyKV folds log entries (in slot order) into a key-value map.
// Unknown commands and reads are ignored, which lets mixed workloads
// share a log.
func ApplyKV(log map[int]Command) map[string]string {
	slots := make([]int, 0, len(log))
	for s := range log {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	kv := map[string]string{}
	for _, s := range slots {
		switch kind, key, arg, _ := cmdParts(log[s]); kind {
		case "set":
			kv[key] = arg
		case "del":
			delete(kv, key)
		}
	}
	return kv
}
