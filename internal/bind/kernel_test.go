package bind

// Exactness of the reverse-Dijkstra kernel and of the bounded summary oracle
// against a plain Bellman-Ford over the same Dist policy, on random graphs
// with zero-latency links (the hop tie-break decides), Infinity-latency links
// and reroute down-sets (saturating weights), and unreachable parts.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"modelnet/internal/topology"
)

// randomDistGraph builds a random directed graph: a strongly connected core,
// a tail of nodes that can reach the core but not be reached from it, and an
// island with no links to the rest.
func randomDistGraph(rng *rand.Rand) *topology.Graph {
	g := topology.New()
	lats := []float64{0, 0, 0.001, 0.002, 0.002, 0.005, InfinityLatencySec}
	attr := func() topology.LinkAttrs {
		return topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: lats[rng.Intn(len(lats))]}
	}
	nc := 3 + rng.Intn(20)
	core := make([]topology.NodeID, nc)
	for i := range core {
		core[i] = g.AddNode(topology.Stub, fmt.Sprintf("r%d", i))
	}
	for i := range core {
		g.AddLink(core[i], core[(i+1)%nc], attr())
	}
	for e := 0; e < 2*nc; e++ {
		if a, b := rng.Intn(nc), rng.Intn(nc); a != b {
			g.AddLink(core[a], core[b], attr())
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		tail := g.AddNode(topology.Client, fmt.Sprintf("t%d", i))
		g.AddLink(tail, core[rng.Intn(nc)], attr())
	}
	island := make([]topology.NodeID, rng.Intn(3))
	for i := range island {
		island[i] = g.AddNode(topology.Stub, fmt.Sprintf("i%d", i))
		if i > 0 {
			g.AddDuplex(island[i-1], island[i], attr())
		}
	}
	return g
}

// bellmanFord is the reference: relax every link until nothing changes.
func bellmanFord(g *topology.Graph, down []topology.LinkID, target topology.NodeID) []Dist {
	isDown := map[topology.LinkID]bool{}
	for _, lid := range down {
		isDown[lid] = true
	}
	dist := make([]Dist, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[target] = Dist{}
	for changed := true; changed; {
		changed = false
		for _, l := range g.Links {
			w := LinkLat(l)
			if isDown[l.ID] {
				w = downLat
			}
			if nd := dist[l.Dst].Add(w); nd.Less(dist[l.Src]) {
				dist[l.Src] = nd
				changed = true
			}
		}
	}
	return dist
}

// randomDown draws a down set, duplicates allowed.
func randomDown(rng *rand.Rand, g *topology.Graph) []topology.LinkID {
	var d []topology.LinkID
	for n := rng.Intn(4); len(d) < n; {
		d = append(d, topology.LinkID(rng.Intn(g.NumLinks())))
	}
	return d
}

func TestDestKernelMatchesBellmanFord(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := randomDistGraph(rng)
		k := newGraphKernel(g) // reused across targets and down sets
		for q := 0; q < 8; q++ {
			target := topology.NodeID(rng.Intn(g.NumNodes()))
			var down []topology.LinkID
			if q%2 == 1 {
				down = randomDown(rng, g)
			}
			want := bellmanFord(g, down, target)
			k.run([]destItem{{node: int32(target)}}, down)
			for n := range want {
				if k.dist[n] != want[n] {
					t.Fatalf("trial %d target %d down %v: node %d kernel %v, Bellman-Ford %v",
						trial, target, down, n, k.dist[n], want[n])
				}
			}
		}
		// The down override is undone: a pristine run still matches.
		if got, want := k.distToNode(0), bellmanFord(g, nil, 0); !slices.Equal(got, want) {
			t.Fatalf("trial %d: pristine field after down runs\n kernel %v\n ref    %v", trial, got, want)
		}
	}
}

func TestSummaryOracleSeedsMatchFullField(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := randomDistGraph(rng)
		cores := 2 + rng.Intn(3)
		nodeOwner := make([]int, g.NumNodes())
		for n := range nodeOwner {
			nodeOwner[n] = rng.Intn(cores)
		}
		owner := make([]int, g.NumLinks())
		for i, l := range g.Links {
			owner[i] = nodeOwner[l.Src]
		}
		views, err := BuildShardViews(g, owner, nodeOwner, cores)
		if err != nil {
			t.Fatal(err)
		}
		summaries := make([][]topology.NodeID, cores)
		for o, v := range views {
			summaries[o] = v.Summary
		}
		downs := [][]topology.LinkID{nil, randomDown(rng, g), randomDown(rng, g), randomDown(rng, g)}
		o, err := NewSummaryOracle(g, summaries, func(e int32) ([]topology.LinkID, error) { return downs[e], nil })
		if err != nil {
			t.Fatal(err)
		}
		// Interleave epochs so cached and fresh answers, and searches under
		// different down sets, alternate on the one kernel.
		for rep := 0; rep < 2; rep++ {
			for target := topology.NodeID(0); int(target) < g.NumNodes(); target++ {
				for e := range downs {
					full := bellmanFord(g, downs[e], target)
					for s := range views {
						got, err := o.Seeds(int32(e), target, s)
						if err != nil {
							t.Fatal(err)
						}
						for i, n := range summaries[s] {
							if got[i] != full[n] {
								t.Fatalf("trial %d epoch %d target %d shard %d: node %d seed %v, full field %v",
									trial, e, target, s, n, got[i], full[n])
							}
						}
					}
				}
			}
		}
		if want := uint64(g.NumNodes() * len(downs)); o.Computes != want {
			t.Fatalf("trial %d: %d searches for %d (epoch, target) pairs", trial, o.Computes, want)
		}
	}
}
