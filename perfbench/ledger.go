package main

import (
	"fmt"
	"math"
	"time"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/fednet"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// layers lists the per-layer metrics the traced run prints, with units.
// A layer that does no work on a workload reads 0 there (the federation
// layers on ring-seq, serial drain under IdealProfile).
var layers = []struct{ name, unit string }{
	{"topology.build_s", "s"},
	{"distill.s", "s"},
	{"assign.s", "s"},
	{"assign.cut_pipes", "count"},
	{"assign.vn_imbalance", "ratio"},
	{"bind.s", "s"},
	{"bind.shard_views_s", "s"},
	{"bind.lookups", "count"},
	{"bind.lookup_ns", "ns"},
	{"bind.route_rpcs", "count"},
	{"emucore.run_s", "s"},
	{"emucore.injects", "count"},
	{"emucore.inject_ns", "ns"},
	{"emucore.pipe_hops", "count"},
	{"emucore.ns_per_hop", "ns"},
	{"emucore.lag_mean_us", "us"},
	{"emucore.lag_max_us", "us"},
	{"vtime.events", "count"},
	{"vtime.ns_per_event", "ns"},
	{"parcore.windows", "count"},
	{"parcore.serial_rounds", "count"},
	{"parcore.messages", "count"},
	{"parcore.grant_mean_ms", "ms"},
	{"parcore.active_window_frac", "ratio"},
	{"parcore.compute_s", "s"},
	{"parcore.barrier_s", "s"},
	{"parcore.serial_s", "s"},
	{"fednet.frames", "count"},
	{"fednet.bytes_per_msg", "B"},
	{"fednet.msgs_per_frame", "ratio"},
	{"fednet.shard_run_s", "s"},
	{"fednet.shard_wait_s", "s"},
	{"fednet.shard_flush_s", "s"},
	{"fednet.shard_apply_s", "s"},
	{"fednet.shard_drain_s", "s"},
	{"fednet.round_us", "us"},
	{"fednet.unaccounted_s", "s"},
	{"fednet.setup_mb", "MiB"},
	{"fednet.startup_s", "s"},
	{"fednet.worker_rss_mb", "MiB"},
	{"fednet.materialized_pipes", "count"},
	{"wire.ring.encode_ns", "ns"},
	{"wire.ring.decode_ns", "ns"},
	{"wire.ring.allocs_per_msg", "count"},
	{"wire.ring.bytes_per_msg", "B"},
	{"wire.tcp.encode_ns", "ns"},
	{"wire.tcp.decode_ns", "ns"},
	{"wire.tcp.allocs_per_msg", "count"},
	{"wire.tcp.bytes_per_msg", "B"},
	{"trace.overhead_s", "s"},
}

// seqLedger times the set-up layers a sequential run goes through
// (modelnet.Run calls them internally) on the same inputs.
func (w *workload) seqLedger(tr *tracer, root spanID) error {
	g := w.topology()
	var dist *distill.Result
	var err error
	tr.span(true, "distill", root, func() { dist, err = distill.Distill(g, distill.Spec{}) })
	if err != nil {
		return err
	}
	tr.span(true, "assign", root, func() { _, err = assign.KClusters(dist.Graph, 1, w.worldSeed) })
	if err != nil {
		return err
	}
	tr.span(true, "bind", root, func() { _, err = bind.Bind(dist.Graph, bind.Options{Cores: 1}) })
	return err
}

// fedLedger times the coordinator's set-up layers on the same inputs
// fednet.Run uses, and describes the partition it produces.
func (w *workload) fedLedger(r *rep, tr *tracer, root spanID) error {
	var g *topology.Graph
	tr.span(true, "topology.build", root, func() { g = w.topology() })
	var dist *distill.Result
	var err error
	tr.span(true, "distill", root, func() { dist, err = distill.Distill(g, distill.Spec{}) })
	if err != nil {
		return err
	}
	var asn *assign.Assignment
	tr.span(true, "assign", root, func() { asn, err = assign.KClusters(dist.Graph, fedCores, w.worldSeed) })
	if err != nil {
		return err
	}
	var b *bind.Binding
	tr.span(true, "bind", root, func() {
		b, err = bind.Bind(dist.Graph, bind.Options{Cores: asn.Cores, LazyRoutes: true})
	})
	if err != nil {
		return err
	}
	tr.span(true, "bind.shard_views", root, func() {
		_, err = bind.BuildShardViews(dist.Graph, asn.Owner, asn.NodeOwner, asn.Cores)
	})
	if err != nil {
		return err
	}
	r.cutPipes = asn.CutStats(dist.Graph).CutPipes
	r.imbalance = imbalance(parcore.Homes(dist.Graph, b, asn.POD(), fedCores), fedCores)
	return nil
}

// imbalance is max ÷ mean VNs homed per shard.
func imbalance(homes []int, k int) float64 {
	per := make([]int, k)
	for _, h := range homes {
		per[h]++
	}
	top := 0
	for _, n := range per {
		if n > top {
			top = n
		}
	}
	if len(homes) == 0 {
		return 0
	}
	return float64(top) * float64(k) / float64(len(homes))
}

// layerValues derives one probed repetition's per-layer values.
func layerValues(r *rep) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p := r.probes
	// Layers without work on this workload read 0.
	v := map[string]float64{}
	for _, l := range layers {
		v[l.name] = 0
	}
	for k, x := range map[string]float64{
		"topology.build_s":      sec(r.ledger["topology.build"]),
		"distill.s":             sec(r.ledger["distill"]),
		"assign.s":              sec(r.ledger["assign"]),
		"assign.cut_pipes":      float64(r.cutPipes),
		"assign.vn_imbalance":   r.imbalance,
		"bind.s":                sec(r.ledger["bind"]),
		"bind.shard_views_s":    sec(r.ledger["bind.shard_views"]),
		"bind.lookups":          float64(p.Lookups),
		"bind.lookup_ns":        div(float64(p.LookupNs), float64(p.Lookups)),
		"emucore.injects":       float64(p.Injects),
		"emucore.inject_ns":     div(float64(p.InjectNs), float64(p.Injects)),
		"emucore.pipe_hops":     float64(p.Hops),
		"emucore.lag_mean_us":   float64(r.Out.Accuracy.MeanLag()) / 1e3,
		"emucore.lag_max_us":    float64(r.Out.Accuracy.MaxLag) / 1e3,
		"vtime.events":          float64(r.events),
		"parcore.windows":       float64(r.Out.Windows),
		"parcore.serial_rounds": float64(r.Out.SerialRounds),
		"parcore.messages":      float64(r.Out.Messages),
		"fednet.frames":         float64(r.Out.Frames),
	} {
		v[k] = x
	}
	// execNs is the wall time shards spend executing events: RunFor in a
	// sequential run, Σ shard run + drain in a federated one.
	execNs := float64(r.runNs)
	runS := sec(r.ledger["emucore.run"])
	if rp := r.fed; rp != nil {
		execNs = 0
		var windows, active uint64
		var rpcs, setupBytes uint64
		for _, wr := range rp.Workers {
			sp := wr.Profile
			execNs += float64(sp.RunWallNs + sp.DrainWallNs)
			windows += sp.Windows
			active += sp.ActiveWindows
			rpcs += wr.RouteRPCs
			setupBytes += wr.SetupBytes
		}
		busy := shardMax(rp, func(wr fednet.WorkerReport) float64 {
			return float64(wr.Profile.RunWallNs + wr.Profile.DrainWallNs)
		})
		accounted := shardMax(rp, func(wr fednet.WorkerReport) float64 {
			sp := wr.Profile
			return float64(sp.FlushWallNs + sp.WaitWallNs + sp.ApplyWallNs + sp.RunWallNs + sp.DrainWallNs)
		})
		shardS := func(f func(fednet.WorkerReport) uint64) float64 {
			return shardMax(rp, func(wr fednet.WorkerReport) float64 { return float64(f(wr)) }) / 1e9
		}
		runS = busy / 1e9
		wallNs := rp.WallMS * 1e6
		v["bind.route_rpcs"] = float64(rpcs)
		v["parcore.grant_mean_ms"] = rp.Sync.GrantMean().Seconds() * 1e3
		v["parcore.active_window_frac"] = div(float64(active), float64(windows))
		v["parcore.compute_s"] = float64(rp.Sync.Profile.ComputeWallNs) / 1e9
		v["parcore.barrier_s"] = float64(rp.Sync.Profile.BarrierWallNs) / 1e9
		v["parcore.serial_s"] = float64(rp.Sync.Profile.SerialWallNs) / 1e9
		v["fednet.bytes_per_msg"] = div(float64(rp.BytesOnWire), float64(rp.Sync.Messages))
		v["fednet.msgs_per_frame"] = div(float64(rp.Sync.Messages), float64(rp.Frames))
		v["fednet.shard_run_s"] = shardS(func(wr fednet.WorkerReport) uint64 { return wr.Profile.RunWallNs })
		v["fednet.shard_wait_s"] = shardS(func(wr fednet.WorkerReport) uint64 { return wr.Profile.WaitWallNs })
		v["fednet.shard_flush_s"] = shardS(func(wr fednet.WorkerReport) uint64 { return wr.Profile.FlushWallNs })
		v["fednet.shard_apply_s"] = shardS(func(wr fednet.WorkerReport) uint64 { return wr.Profile.ApplyWallNs })
		v["fednet.shard_drain_s"] = shardS(func(wr fednet.WorkerReport) uint64 { return wr.Profile.DrainWallNs })
		v["fednet.round_us"] = div(wallNs-busy, float64(rp.Sync.Windows+rp.Sync.SerialRounds)) / 1e3
		v["fednet.unaccounted_s"] = (wallNs - accounted) / 1e9
		v["fednet.setup_mb"] = float64(setupBytes) / (1 << 20)
		v["fednet.startup_s"] = shardMax(rp, func(wr fednet.WorkerReport) float64 { return float64(wr.StartupWallNs) }) / 1e9
		v["fednet.worker_rss_mb"] = shardMax(rp, func(wr fednet.WorkerReport) float64 { return float64(wr.PeakRSSBytes) }) / (1 << 20)
		v["fednet.materialized_pipes"] = shardMax(rp, func(wr fednet.WorkerReport) float64 { return float64(wr.MaterializedPipes) })
	}
	v["emucore.run_s"] = runS
	v["emucore.ns_per_hop"] = div(execNs, float64(p.Hops))
	v["vtime.ns_per_event"] = div(execNs, float64(r.events))
	return v
}

// shardMax is the largest value f takes over the federation's shards.
func shardMax(rp *fednet.Report, f func(fednet.WorkerReport) float64) float64 {
	top := 0.0
	for _, wr := range rp.Workers {
		top = math.Max(top, f(wr))
	}
	return top
}

// layerMetrics reduces the probed repetitions to the per-layer metrics:
// the median of each value (counts agree exactly across repetitions), the
// codec microbenchmark, and the tracing overhead against the untraced
// repetitions of the same run.
func layerMetrics(w *workload, timed, probed []*rep) (map[string]metric, error) {
	vals := map[string][]float64{}
	var tw, pw []float64
	for _, r := range probed {
		for k, x := range r.Layers {
			vals[k] = append(vals[k], x)
		}
		pw = append(pw, r.Wall.Seconds())
	}
	for _, r := range timed {
		tw = append(tw, r.Wall.Seconds())
	}
	wb, err := wireBench(ringRouteLen(w))
	if err != nil {
		return nil, err
	}
	for k, x := range wb {
		vals[k] = []float64{x}
	}
	vals["trace.overhead_s"] = []float64{median(pw) - median(tw)}
	if len(vals) != len(layers) {
		return nil, fmt.Errorf("%d per-layer values for %d listed metrics", len(vals), len(layers))
	}
	out := map[string]metric{}
	for _, l := range layers {
		xs, ok := vals[l.name]
		if !ok {
			return nil, fmt.Errorf("no value for per-layer metric %q", l.name)
		}
		out[l.name] = metric{median(xs), l.unit}
	}
	return out, nil
}

// ringRouteLen is the route length of ring-cbr's flows (half the ring plus
// the two access links), measured on the ring spec's own topology.
func ringRouteLen(w *workload) int {
	spec := w.ring
	if spec == nil {
		rw, err := newWorkload("ring-seq", defaultSeed, 1)
		if err != nil {
			return 0
		}
		spec = rw.ring
	}
	g := spec.Topology()
	dist, err := distill.Distill(g, distill.Spec{})
	if err != nil {
		return 0
	}
	b, err := bind.Bind(dist.Graph, bind.Options{LazyRoutes: true})
	if err != nil {
		return 0
	}
	n := b.NumVNs()
	route, _ := b.Table.Lookup(0, pipes.VN(n/2))
	return len(route)
}
