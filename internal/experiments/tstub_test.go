package experiments

// The sharded-distribution contract on the transit-stub workload, at two
// sizes: a small population where all three runtimes can run (so the usual
// counter/CDF determinism cross-check applies, with the local baseline on
// the demand-built route cache instead of the O(n²) matrix), and a large
// 50k-VN population where only the federation runs and the assertions are
// about footprint — per-worker setup bytes and materialized pipes must be
// a fraction of the world, and route state must arrive by demand paging.

import (
	"testing"

	"modelnet"
	"modelnet/internal/bind"
	"modelnet/internal/fednet"
	"modelnet/internal/fednet/wire"
)

func tstubSmallSpec() TStubCBRSpec {
	return TStubCBRSpec{
		TransitDomains:   2,
		TransitPerDomain: 3,
		StubsPerTransit:  3,
		RoutersPerStub:   2,
		ClientsPerStub:   8,
		Servers:          8,
		Flows:            24,
		PacketsPerSec:    50,
		PacketBytes:      600,
		DurationSec:      1.5,
		Seed:             51,
	}
}

// TestWithRouteCacheComputesEachTargetOnce pins WithRouteCache's unit: a
// cache sized for the workload's distinct targets (the tstub-cbr servers)
// computes each target's distance field exactly once over a whole run.
func TestWithRouteCacheComputesEachTargetOnce(t *testing.T) {
	spec := tstubSmallSpec()
	o := applyRunOpts([]RunOpt{WithRouteCache(spec.Servers)})
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(spec.Topology(), modelnet.Options{Profile: &ideal, Seed: spec.Seed, RouteCache: o.routeCache})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Install(em.NumVNs(), allHomed, em.NewHost, em.SchedulerOf); err != nil {
		t.Fatal(err)
	}
	em.RunFor(spec.RunFor())
	if em.Totals().Delivered == 0 {
		t.Fatal("run delivered nothing")
	}
	c, ok := em.Binding.Table.(*bind.Cache)
	if !ok {
		t.Fatalf("route table is %T, want *bind.Cache", em.Binding.Table)
	}
	servers, _ := spec.plan(em.NumVNs())
	if got := c.FieldMisses(); got != uint64(len(servers)) {
		t.Errorf("computed %d distance fields for %d targets", got, len(servers))
	}
}

func TestTStubCBRFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := tstubSmallSpec()
	cache := WithRouteCache(spec.Servers + 8)
	seq, err := RunTStubCBRLocal(spec, 1, false, false, cache)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Totals.Delivered == 0 {
		t.Fatal("tstub run delivered nothing")
	}
	if seq.Totals.NoRoute > 0 {
		t.Fatalf("tstub run had %d unroutable packets", seq.Totals.NoRoute)
	}
	for _, sm := range []modelnet.SyncMode{modelnet.SyncAdaptive, modelnet.SyncFixed} {
		par, err := RunTStubCBRLocal(spec, 4, true, false, cache, WithSync(sm))
		if err != nil {
			t.Fatal(err)
		}
		if seq.Totals != par.Totals {
			t.Errorf("tstub counters diverge (%s):\n sequential %+v\n parallel   %+v", sm, seq.Totals, par.Totals)
		}
		sameCDF(t, "tstub seq vs par "+sm.String(), seq.Deliveries, par.Deliveries)
	}
	for _, fp := range []struct {
		cores int
		plane string
		sync  modelnet.SyncMode
	}{
		{2, fednet.DataUDP, modelnet.SyncAdaptive},
		{3, fednet.DataTCP, modelnet.SyncAdaptive},
		{2, fednet.DataTCP, modelnet.SyncFixed},
	} {
		fed, err := RunTStubCBRFederated(spec, fp.cores, fp.plane, WithSync(fp.sync))
		if err != nil {
			t.Fatalf("%d workers over %s (%s): %v", fp.cores, fp.plane, fp.sync, err)
		}
		name := fmtPlane("tstub-cbr", fp.cores, fp.plane, fp.sync)
		if seq.Totals != fed.Totals {
			t.Errorf("%s: counters diverge:\n sequential %+v\n federated  %+v", name, seq.Totals, fed.Totals)
		}
		sameCDF(t, name, seq.Deliveries, sampleOf(fed))
		if fed.Sync.Messages == 0 {
			t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
		}
		for _, w := range fed.Workers {
			if w.RouteRPCs == 0 {
				t.Errorf("%s: shard %d paged no route summaries — the demand path went unexercised", name, w.Shard)
			}
		}
	}
}

// TestShardedDistributionScales is the large-topology smoke: ~50k VNs cut
// across 2 worker processes over loopback. It asserts the tentpole's memory
// claim directly — each worker receives a setup stream and materializes a
// pipe set that is a fraction of the world (≈ its half plus the cut
// frontier), with route state paged on demand rather than shipped.
func TestShardedDistributionScales(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses over a 50k-VN world")
	}
	spec := TStubCBRSpec{
		TransitDomains:   10,
		TransitPerDomain: 10,
		StubsPerTransit:  5,
		RoutersPerStub:   4,
		ClientsPerStub:   100, // 10·10·5·100 = 50 000 VNs
		Servers:          16,
		Flows:            32,
		PacketsPerSec:    20,
		PacketBytes:      512,
		DurationSec:      0.5,
		Seed:             71,
	}
	g := spec.Topology()
	totalLinks := g.NumLinks()
	// What the pre-sharding coordinator would have shipped to every worker:
	// the whole distilled topology plus the full link assignment.
	monolithic := len(encodeTopology(g)) + len(encodeAssignment(make([]int, totalLinks), 2))

	fed, err := RunTStubCBRFederated(spec, 2, fednet.DataTCP)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Totals.Delivered == 0 {
		t.Fatal("50k-VN federation delivered nothing")
	}
	if fed.Totals.NoRoute > 0 {
		t.Fatalf("50k-VN federation had %d unroutable packets", fed.Totals.NoRoute)
	}
	sumPipes := 0
	for _, w := range fed.Workers {
		if w.SetupBytes == 0 || w.StartupWallNs == 0 {
			t.Fatalf("shard %d reported no setup cost: %+v", w.Shard, w)
		}
		// The shard view re-encodes its links with ownership and frontier
		// metadata, so per-link it is slightly wider than the monolithic
		// topology row — but it only carries this shard's ≈half of the
		// world. 75% of the monolithic stream is a conservative ceiling;
		// in practice it sits near 55%.
		if w.SetupBytes > uint64(monolithic)*3/4 {
			t.Errorf("shard %d setup is not sublinear: %d bytes vs %d monolithic", w.Shard, w.SetupBytes, monolithic)
		}
		// Materialized pipes ≈ owned half + incoming frontier. A worker
		// holding over 65%% of the world's pipes is not sharded; under 25%%
		// would mean the cut is pathologically unbalanced.
		frac := float64(w.MaterializedPipes) / float64(totalLinks)
		if frac > 0.65 || frac < 0.25 {
			t.Errorf("shard %d materialized %d/%d pipes (%.0f%%), outside the half-plus-frontier envelope",
				w.Shard, w.MaterializedPipes, totalLinks, frac*100)
		}
		if w.RouteRPCs == 0 {
			t.Errorf("shard %d paged no route summaries", w.Shard)
		}
		sumPipes += w.MaterializedPipes
	}
	// Every link is owned by exactly one shard and frontier copies only
	// add: the fleet together must cover the world.
	if sumPipes < totalLinks {
		t.Errorf("workers together materialized %d pipes < %d links — part of the world went unemulated", sumPipes, totalLinks)
	}
}

// encodeTopology and encodeAssignment are the retired monolithic setup
// codecs, kept as TestShardedDistributionScales' yardstick: the whole
// distilled topology (per node a kind byte and a length-prefixed name, per
// link its endpoints and bit-exact attributes) and the full pipe->core
// assignment, as every worker once received them.
func encodeTopology(g *modelnet.Graph) []byte {
	var e wire.Enc
	e.U32(uint32(g.NumNodes()))
	for _, n := range g.Nodes {
		e.U8(uint8(n.Kind))
		e.Str(n.Name)
	}
	e.U32(uint32(g.NumLinks()))
	for _, l := range g.Links {
		e.U32(uint32(l.Src))
		e.U32(uint32(l.Dst))
		e.F64(l.Attr.BandwidthBps)
		e.F64(l.Attr.LatencySec)
		e.F64(l.Attr.LossRate)
		e.I32(int32(l.Attr.QueuePkts))
		e.F64(l.Attr.Cost)
	}
	return e.Bytes()
}

func encodeAssignment(owner []int, cores int) []byte {
	var e wire.Enc
	e.U32(uint32(cores))
	e.U32(uint32(len(owner)))
	for _, o := range owner {
		e.U32(uint32(o))
	}
	return e.Bytes()
}
