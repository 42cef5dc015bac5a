// Package cluster is the coordinator tier of a multi-node matchd
// deployment: one coordinator process routes job submissions to worker
// matchd nodes by consistent-hashing the submission's sha256 content
// address, collapses identical concurrent submissions with singleflight
// before they reach a worker, serves a coordinator-level LRU result
// cache backed by the workers' own caches, and hands off mid-solve
// checkpoints so a draining or dead worker's jobs resume on a surviving
// node with their trace intact. It follows each routed solve with a
// long-poll on the worker's status route, so a finished solve is seen as
// soon as the worker finishes it.
//
// The coordinator speaks the same HTTP/JSON job protocol as a standalone
// matchd (package httpapi), so clients point at either interchangeably;
// cluster-only routes (GET /v1/cluster, POST /v1/cluster/drain) expose
// topology and drain control. Results routed through the coordinator are
// bit-identical to a single-node solve of the same (spec, seed):
// checkpoint export is pure observation, and the supervision fields ride
// outside the options document the content address hashes.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// defaultReplicas is the virtual-node count per worker. 128 points per
// worker keeps the load split within a few percent of even for small
// clusters while the ring stays tiny (a few KiB).
const defaultReplicas = 128

// Ring is a consistent-hash ring over worker base URLs. Construction is
// deterministic in the member set alone — point positions derive from
// worker names, and the point list is sorted — so routing is stable
// across coordinator restarts and membership-list orderings, and adding
// or removing one worker remaps only ~K/n of K keys.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	workers  []string    // distinct members, sorted
}

type ringPoint struct {
	hash   uint64
	worker string
}

// NewRing builds a ring over the given workers with replicas virtual
// nodes each (<= 0 takes the default). Duplicate members collapse.
func NewRing(workers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(workers))
	r := &Ring{replicas: replicas}
	for _, w := range workers {
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		r.workers = append(r.workers, w)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(w, i), worker: w})
		}
	}
	sort.Strings(r.workers)
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on worker name so equal hashes (vanishingly rare but
		// possible) cannot make routing depend on sort stability.
		return r.points[a].worker < r.points[b].worker
	})
	return r
}

// pointHash places one virtual node: the first 8 bytes of
// sha256("worker#replica"), a stable function of the member name.
func pointHash(worker string, replica int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", worker, replica)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash places a content address on the ring. Keys are already hex
// sha256 digests, but hashing again costs nothing and keeps the ring
// correct for arbitrary key strings.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Workers returns the ring's member set, sorted.
func (r *Ring) Workers() []string { return append([]string(nil), r.workers...) }

// Lookup returns the worker owning key — the first virtual node at or
// clockwise of the key's position. Empty string on an empty ring.
func (r *Ring) Lookup(key string) string {
	w, _ := r.LookupExcluding(key, nil)
	return w
}

// LookupExcluding is Lookup skipping excluded workers (a coordinator's
// down set): the walk continues clockwise to the next virtual node owned
// by a live worker, so keys of a dead node spill over to its ring
// successors while everyone else's placement is untouched. ok is false
// when every member is excluded.
func (r *Ring) LookupExcluding(key string, excluded map[string]bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !excluded[p.worker] {
			return p.worker, true
		}
	}
	return "", false
}
