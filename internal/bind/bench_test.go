package bind_test

// Layer microbenchmarks for route computation on a generated transit-stub of
// about 10⁴ VNs, split over two k-clusters shards as a federation would:
//
//	go test ./internal/bind -run '^$' -bench . -benchmem
//
// Each op is one distance computation that misses every cache.

import (
	"testing"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// Sinks keep the measured calls' results alive.
var (
	sinkDist  []bind.Dist
	sinkRoute bind.Route
)

// tstubWorld is a 10⁴-VN transit-stub (4·5·5 stubs of 100 clients) with the
// era attributes of the tstub-cbr scenario, sharded two ways.
func tstubWorld(tb testing.TB) (*topology.Graph, *assign.Assignment, []*bind.ShardView) {
	tb.Helper()
	g := topology.TransitStub(topology.TransitStubConfig{
		TransitDomains: 4, TransitPerDomain: 5, StubsPerTransit: 5,
		RoutersPerStub: 4, ClientsPerStub: 100,
		TransitTransit: topology.LinkAttrs{BandwidthBps: topology.Mbps(155), LatencySec: topology.Ms(20)},
		TransitStub:    topology.LinkAttrs{BandwidthBps: topology.Mbps(45), LatencySec: topology.Ms(10)},
		StubStub:       topology.LinkAttrs{BandwidthBps: topology.Mbps(100), LatencySec: topology.Ms(2)},
		ClientStub:     topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: topology.Ms(1)},
		Seed:           61,
	})
	asn, err := assign.KClusters(g, 2, 61)
	if err != nil {
		tb.Fatal(err)
	}
	views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return g, asn, views
}

func newOracle(tb testing.TB, g *topology.Graph, views []*bind.ShardView) *bind.SummaryOracle {
	tb.Helper()
	summaries := make([][]topology.NodeID, len(views))
	for o, v := range views {
		summaries[o] = v.Summary
	}
	o, err := bind.NewSummaryOracle(g, summaries, func(int32) ([]topology.LinkID, error) { return nil, nil })
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

func BenchmarkDistToNode(b *testing.B) {
	g, _, _ := tstubWorld(b)
	clients := g.Clients()
	dist := bind.DistToNode(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist = dist(clients[i*37%len(clients)])
	}
}

// BenchmarkShardTableMiss times a Lookup whose shard-local field misses: the
// seeded search over the shard's owned links plus the segment walk. Seeds
// are precomputed, so the coordinator's share is not in the op.
func BenchmarkShardTableMiss(b *testing.B) {
	g, asn, views := tstubWorld(b)
	clients := g.Clients()
	oracle := newOracle(b, g, views)
	const targets = 64
	seeds := map[topology.NodeID][]bind.Dist{}
	var dsts []pipes.VN
	for i := 0; i < targets; i++ {
		v := i * len(clients) / targets
		s, err := oracle.Seeds(0, clients[v], 0)
		if err != nil {
			b.Fatal(err)
		}
		seeds[clients[v]] = s
		dsts = append(dsts, pipes.VN(v))
	}
	skel, err := views[0].Skeleton()
	if err != nil {
		b.Fatal(err)
	}
	src := pipes.VN(-1)
	for v, n := range clients {
		if asn.NodeOwner[n] == 0 {
			src = pipes.VN(v)
			break
		}
	}
	tbl, err := bind.NewShardTable(skel, views[0], clients,
		func(_ int32, t topology.NodeID) ([]bind.Dist, error) { return seeds[t], nil }, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRoute, _ = tbl.Lookup(src, dsts[i%targets])
	}
}

// BenchmarkSummaryOracleSeeds times a summary request that misses the
// oracle's cache: one bounded search plus the gather for one shard.
func BenchmarkSummaryOracleSeeds(b *testing.B) {
	g, _, views := tstubWorld(b)
	clients := g.Clients()
	oracle := newOracle(b, g, views)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh epoch each time the targets wrap keeps every request a miss.
		var err error
		if sinkDist, err = oracle.Seeds(int32(i/len(clients)), clients[i*37%len(clients)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
