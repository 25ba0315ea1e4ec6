package bind

// Destination-rooted route computation with integer weights — the canonical
// routing policy shared by every execution mode.
//
// The policy: the distance of a path is the lexicographic pair
// (total latency in integer nanoseconds, hop count); the next hop out of
// node n toward target t is the out-link minimizing weight(l) + dist(head(l), t),
// ties broken by smallest link ID. Integer arithmetic makes path sums
// associative, so a distance computed by a reverse Dijkstra on the full
// graph and one computed from a shard-local subgraph seeded with frontier
// summaries agree bit-for-bit — which is what lets a federated worker
// reproduce exactly the next-hops the global matrix would have picked
// (internal/bind/shard.go builds on this).

import (
	"math"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Dist is a path distance under the canonical policy: total latency in
// integer nanoseconds, then hop count, compared lexicographically.
type Dist struct {
	Lat  vtime.Duration
	Hops int32
}

// Unreachable is the distance of a node with no path to the target.
var Unreachable = Dist{Lat: vtime.Duration(math.MaxInt64), Hops: math.MaxInt32}

// Reachable reports whether d is a finite distance.
func (d Dist) Reachable() bool { return d.Lat != Unreachable.Lat || d.Hops != Unreachable.Hops }

// Less orders distances lexicographically: latency first, then hops.
func (d Dist) Less(o Dist) bool {
	if d.Lat != o.Lat {
		return d.Lat < o.Lat
	}
	return d.Hops < o.Hops
}

// Add extends d by one link of the given latency, saturating so Infinity-
// weighted links (dynamics' down-link degradation) cannot overflow.
func (d Dist) Add(lat vtime.Duration) Dist {
	if !d.Reachable() {
		return Unreachable
	}
	s := d.Lat + lat
	if s < d.Lat { // overflow
		s = vtime.Duration(math.MaxInt64 - 1)
	}
	h := d.Hops
	if h < math.MaxInt32-1 {
		h++
	}
	return Dist{Lat: s, Hops: h}
}

// LinkLat is the canonical integer weight of a link: its propagation
// latency converted to nanoseconds exactly as the emulation's pipes convert
// it. Every route computation — global or shard-local — must use this and
// only this conversion, or tie-breaks diverge across modes.
func LinkLat(l topology.Link) vtime.Duration {
	return vtime.DurationOf(l.Attr.LatencySec)
}

// destItem is a frontier entry of the reverse Dijkstra: a node's tentative
// distance, flattened so an entry is 16 bytes.
type destItem struct {
	lat  vtime.Duration
	hops int32
	node int32
}

func (it destItem) dist() Dist { return Dist{Lat: it.lat, Hops: it.hops} }

// before orders frontier entries by distance, then node index.
func (it destItem) before(o destItem) bool {
	if it.lat != o.lat {
		return it.lat < o.lat
	}
	if it.hops != o.hops {
		return it.hops < o.hops
	}
	return it.node < o.node
}

// destKernel is the one reverse Dijkstra behind every route computation:
// Matrix, Cache and Lazy fields (destEngine), shard-local fields
// (ShardTable) and frontier summaries (SummaryOracle). It runs over a
// reverse adjacency in compressed-sparse-row form on dense node indices:
// the in-links of node v are entries off[v] .. off[v+1]-1, each holding its
// tail's index and its canonical weight (LinkLat, precomputed), so a
// relaxation neither copies a topology.Link nor converts a float. Distance
// field, frontier heap and bookkeeping are scratch reused across runs.
//
// The result of a run is the unique policy distance toward the seeds —
// independent of heap pop order — so any two computations of it agree
// exactly, and a bounded run (stopAt) that ends once its stop nodes settle
// has their final distances: Dijkstra settles in nondecreasing distance, and
// every weight adds at least one hop.
type destKernel struct {
	off  []int32
	tail []int32
	lat  []vtime.Duration
	at   []int32 // link ID -> entry, -1 when the link is not indexed

	dist    []Dist // Unreachable outside touched
	touched []int32
	heap    []destItem
	saved   []downSave
	stop    []bool // stop[v]: a bounded run waits for v to settle
	nstop   int
}

type downSave struct {
	entry int32
	lat   vtime.Duration
}

// newDestKernel indexes the given links (ascending ID order) over n dense
// node indices; idx maps a node ID to its index (nil = identity) and must
// cover every link's endpoints. numLinks sizes the link ID space.
func newDestKernel(n, numLinks int, links []topology.Link, idx []int32) *destKernel {
	at := func(v topology.NodeID) int32 {
		if idx == nil {
			return int32(v)
		}
		return idx[v]
	}
	k := &destKernel{
		off:  make([]int32, n+1),
		tail: make([]int32, len(links)),
		lat:  make([]vtime.Duration, len(links)),
		at:   make([]int32, numLinks),
		dist: make([]Dist, n),
	}
	for _, l := range links {
		k.off[at(l.Dst)+1]++
	}
	for v := 0; v < n; v++ {
		k.off[v+1] += k.off[v]
	}
	next := append([]int32(nil), k.off[:n]...)
	for i := range k.at {
		k.at[i] = -1
	}
	for _, l := range links {
		d := at(l.Dst)
		e := next[d]
		next[d]++
		k.tail[e] = at(l.Src)
		k.lat[e] = LinkLat(l)
		k.at[l.ID] = e
	}
	for i := range k.dist {
		k.dist[i] = Unreachable
	}
	return k
}

// newGraphKernel indexes every link of g over its node IDs.
func newGraphKernel(g *topology.Graph) *destKernel {
	return newDestKernel(g.NumNodes(), g.NumLinks(), g.Links, nil)
}

// stopAt bounds later runs: each ends once every given node has settled.
func (k *destKernel) stopAt(nodes []int32) {
	k.stop = make([]bool, len(k.dist))
	k.nstop = 0
	for _, v := range nodes {
		if !k.stop[v] {
			k.stop[v] = true
			k.nstop++
		}
	}
}

// run computes the canonical distance toward the seeds into k.dist, valid
// until the next run, with the given links degraded to Infinity latency (the
// reroute epoch's down set, applied as a weight override and undone on
// return). Seed distances are starting values; unreachable ones are ignored.
// It returns the number of nodes settled.
func (k *destKernel) run(seeds []destItem, down []topology.LinkID) int {
	for _, v := range k.touched {
		k.dist[v] = Unreachable
	}
	k.touched = k.touched[:0]
	k.heap = k.heap[:0]
	k.saved = k.saved[:0]
	for _, lid := range down {
		if lid < 0 || int(lid) >= len(k.at) || k.at[lid] < 0 {
			continue
		}
		e := k.at[lid]
		k.saved = append(k.saved, downSave{e, k.lat[e]})
		k.lat[e] = downLat
	}
	for _, s := range seeds {
		k.relax(s.node, s.dist())
	}
	settled, remaining := 0, k.nstop
	for len(k.heap) > 0 {
		it := k.pop()
		d := it.dist()
		if d != k.dist[it.node] {
			continue // superseded by a shorter entry
		}
		settled++
		if remaining > 0 && k.stop[it.node] {
			if remaining--; remaining == 0 {
				break
			}
		}
		for e := k.off[it.node]; e < k.off[it.node+1]; e++ {
			k.relax(k.tail[e], d.Add(k.lat[e]))
		}
	}
	// Undo in reverse so a link listed twice gets its own weight back.
	for i := len(k.saved) - 1; i >= 0; i-- {
		k.lat[k.saved[i].entry] = k.saved[i].lat
	}
	return settled
}

// relax lowers v's tentative distance to d when d is shorter.
func (k *destKernel) relax(v int32, d Dist) {
	cur := k.dist[v]
	if !d.Less(cur) {
		return
	}
	if cur == Unreachable {
		k.touched = append(k.touched, v)
	}
	k.dist[v] = d
	k.push(destItem{lat: d.Lat, hops: d.Hops, node: v})
}

func (k *destKernel) push(it destItem) {
	h := append(k.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	k.heap = h
}

// pop removes the minimum entry. It sinks the hole at the root to a leaf
// along smaller children and sifts the last entry up from there: the last
// entry nearly always belongs near the bottom, so this costs about one
// comparison per level instead of two.
func (k *destKernel) pop() destItem {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if !last.before(h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = last
	}
	k.heap = h
	return top
}

// distToNode computes the full canonical distance field toward target: one
// unbounded run seeded at the target, copied out of the scratch field.
func (k *destKernel) distToNode(target topology.NodeID) []Dist {
	k.run([]destItem{{node: int32(target)}}, nil)
	return append([]Dist(nil), k.dist...)
}

// NextHop picks the canonical next link out of n toward the target whose
// distance field is dist: the out-link minimizing weight + downstream
// distance, smallest link ID on ties. It returns -1 when n has no path.
func NextHop(g *topology.Graph, n topology.NodeID, dist []Dist) topology.LinkID {
	best := topology.LinkID(-1)
	var bd Dist
	for _, lid := range g.Out(n) {
		l := &g.Links[lid]
		hd := dist[l.Dst]
		if !hd.Reachable() {
			continue
		}
		cd := hd.Add(LinkLat(*l))
		if best < 0 || cd.Less(bd) || (cd == bd && lid < best) {
			best, bd = lid, cd
		}
	}
	return best
}

// WalkRoute extracts the canonical route from src to target by greedy
// NextHop steps. Returns nil when target is unreachable from src; an empty
// route when src == target.
func WalkRoute(g *topology.Graph, src, target topology.NodeID, dist []Dist) Route {
	if src == target {
		return Route{}
	}
	if !dist[src].Reachable() {
		return nil
	}
	var r Route
	cur := src
	// The walk strictly decreases (lat, hops) — hops alone when a link has
	// zero latency — so it terminates; the cap is pure defense.
	for steps := 0; cur != target; steps++ {
		if steps > g.NumLinks() {
			return nil
		}
		lid := NextHop(g, cur, dist)
		if lid < 0 {
			return nil
		}
		r = append(r, pipes.ID(lid))
		cur = g.Links[lid].Dst
	}
	return r
}

// destEngine caches per-target distance fields over one graph, the shared
// machinery behind Matrix, Cache, and Lazy. Entries are evicted LRU; results
// are deterministic regardless of eviction order. The kernel is built on the
// first miss, so a table that is never consulted costs no index.
type destEngine struct {
	g      *topology.Graph
	k      *destKernel
	fields *lru[topology.NodeID, []Dist]
	// misses counts distance fields computed.
	misses uint64
}

func newDestEngine(g *topology.Graph, capacity int) *destEngine {
	return &destEngine{g: g, fields: newLRU[topology.NodeID, []Dist](capacity)}
}

// distTo returns the distance field toward target, computing and caching it
// on a miss.
func (e *destEngine) distTo(target topology.NodeID) []Dist {
	if d, ok := e.fields.get(target); ok {
		return d
	}
	if e.k == nil {
		e.k = newGraphKernel(e.g)
	}
	e.misses++
	d := e.k.distToNode(target)
	e.fields.put(target, d)
	return d
}

func (e *destEngine) invalidate() { e.fields.clear() }
