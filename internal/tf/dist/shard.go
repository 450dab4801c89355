package dist

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/securetf/securetf/internal/tf"
)

// ShardFor places a variable on one of shards parameter-server shards by
// name hash. The 32-bit FNV-1a hash space is range-partitioned (shard =
// hash·shards >> 32) rather than taken modulo shards, so growing the
// shard count by an integer factor refines the placement instead of
// reshuffling it: every variable of a 2-shard cluster stays within the
// corresponding half of a 4-shard cluster. Placement is deterministic
// across processes — workers and parameter servers compute it
// independently and must agree.
func ShardFor(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(uint64(h.Sum32()) * uint64(shards) >> 32)
}

// Router owns the variable → shard placement of one training cluster.
// Both sides build it from the full variable name set: parameter-server
// shards to know which variables they own, workers to know where each
// pull and push goes.
type Router struct {
	shards int
	owner  map[string]int
	names  [][]string // per shard, sorted
}

// NewRouter validates the placement of every variable name across shards
// and returns the router. It enforces the sharding invariant — every
// variable maps to exactly one in-range shard — and rejects duplicate or
// empty names, which would silently place two tensors in one slot.
func NewRouter(names []string, shards int) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dist: shard count must be ≥ 1, got %d", shards)
	}
	r := &Router{
		shards: shards,
		owner:  make(map[string]int, len(names)),
		names:  make([][]string, shards),
	}
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("dist: empty variable name cannot be sharded")
		}
		if _, dup := r.owner[name]; dup {
			return nil, fmt.Errorf("dist: duplicate variable name %q in shard placement", name)
		}
		s := ShardFor(name, shards)
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("dist: variable %q mapped to shard %d of %d", name, s, shards)
		}
		r.owner[name] = s
		r.names[s] = append(r.names[s], name)
	}
	for s := range r.names {
		sort.Strings(r.names[s])
	}
	return r, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return r.shards }

// Owner returns the shard owning name, or -1 for a name outside the
// placement.
func (r *Router) Owner(name string) int {
	s, ok := r.owner[name]
	if !ok {
		return -1
	}
	return s
}

// Names returns the sorted variable names owned by shard s — the
// manifest exchanged during the connection handshake. The returned slice
// is shared; callers must not mutate it.
func (r *Router) Names(s int) []string {
	if s < 0 || s >= r.shards {
		return nil
	}
	return r.names[s]
}

// Partition splits a full variable map into per-shard maps following the
// placement. Tensors are not copied. Variables absent from the router's
// placement are an error: they would be orphaned on no shard.
func (r *Router) Partition(vars map[string]*tf.Tensor) ([]map[string]*tf.Tensor, error) {
	out := make([]map[string]*tf.Tensor, r.shards)
	for s := range out {
		out[s] = make(map[string]*tf.Tensor)
	}
	for name, t := range vars {
		s, ok := r.owner[name]
		if !ok {
			return nil, fmt.Errorf("dist: variable %q has no shard placement", name)
		}
		out[s][name] = t
	}
	return out, nil
}

// ShardVars returns the subset of vars owned by shard s under the
// name-hash placement, without requiring a router (the parameter-server
// side, which sees only the full seed map).
func ShardVars(vars map[string]*tf.Tensor, s, shards int) map[string]*tf.Tensor {
	out := make(map[string]*tf.Tensor)
	for name, t := range vars {
		if ShardFor(name, shards) == s {
			out[name] = t
		}
	}
	return out
}
