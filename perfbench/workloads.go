package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"time"

	"modelnet"
	"modelnet/internal/emucore"
	"modelnet/internal/experiments"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// defaultSeed is the seed the recorded reference (reference.json) holds.
const defaultSeed = 1

// fedCores is the worker count of the federated workloads: two, the CPU
// count of the host the sizes were chosen on.
const fedCores = 2

// workload is one generated set of inputs and how to run it.
type workload struct {
	name  string
	fed   bool
	ideal bool
	ring  *experiments.RingCBRSpec
	tstub *experiments.TStubCBRSpec
	// worldSeed seeds the topology generator, the assignment and the
	// emulator (see newWorkload).
	worldSeed int64
}

// workloadDefs lists the workloads with the virtual duration each runs at
// scale 1. Sizes put one repetition at one to five wall seconds on a 2-CPU
// host, so a 20-second run takes its medians over four or more
// repetitions.
var workloadDefs = []struct {
	name     string
	fed      bool
	ideal    bool
	tstub    bool
	duration float64 // injection window, virtual seconds
}{
	{"ring-seq", false, false, false, 8},
	{"ring-fed2", true, true, false, 3},
	{"ring-fed2-paper", true, false, false, 0.5},
	{"tstub100k-fed2", true, true, true, 1},
}

func workloadNames() []string {
	var ns []string
	for _, d := range workloadDefs {
		ns = append(ns, d.name)
	}
	return ns
}

// newWorkload generates the named workload's inputs from seed: the spec
// seed, which draws each flow's start phase and rate jitter, is 10+seed on
// the ring and 60+seed on the transit-stub (seed 1 gives the experiments'
// 11 and 61). The emulated world — the transit-stub graph, the assignment
// of links to cores and the emulator's own draws — keeps the default seed's
// values (worldSeed): a different graph moves path delays and shard sizes
// by ±10%, and some assignment seeds home the whole ring on one of the two
// workers, which changes the work by 10×. Either would make a seed change
// read as a regression.
func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("scale %v must be positive", scale)
	}
	for _, d := range workloadDefs {
		if d.name != name {
			continue
		}
		w := &workload{name: name, fed: d.fed, ideal: d.ideal}
		if d.tstub {
			w.tstub = &experiments.TStubCBRSpec{
				TransitDomains: 10, TransitPerDomain: 10, StubsPerTransit: 10,
				RoutersPerStub: 4, ClientsPerStub: 100, // 10·10·10·100 = 10⁵ VNs
				Servers: 32, Flows: 128, PacketsPerSec: 20, PacketBytes: 512,
				DurationSec: d.duration * scale,
				Seed:        60 + seed,
			}
			w.worldSeed = 60 + defaultSeed
		} else {
			w.ring = &experiments.RingCBRSpec{
				Routers: 20, VNsPerRouter: 20, PacketsPerSec: 50, PacketBytes: 1000,
				DurationSec: d.duration * scale,
				Seed:        10 + seed,
			}
			w.worldSeed = 10 + defaultSeed
		}
		return w, nil
	}
	return nil, fmt.Errorf("no workload %q (have %v)", name, workloadNames())
}

func (w *workload) runFor() modelnet.Duration {
	if w.tstub != nil {
		return w.tstub.RunFor()
	}
	return w.ring.RunFor()
}

func (w *workload) topology() *modelnet.Graph {
	if w.tstub != nil {
		spec := *w.tstub
		spec.Seed = w.worldSeed
		return spec.Topology()
	}
	return w.ring.Topology()
}

func (w *workload) install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host, sched func(pipes.VN) *vtime.Scheduler) error {
	if w.tstub != nil {
		return w.tstub.Install(n, homed, host, sched)
	}
	return w.ring.Install(n, homed, host, sched)
}

func (w *workload) profile() emucore.Profile {
	if w.ideal {
		return emucore.IdealProfile()
	}
	return emucore.DefaultProfile()
}

// rep is one repetition's measurements. A repetition runs in a process of
// its own (see runChild), so its peak RSS and garbage-collector state
// belong to it alone; the exported fields are what that process reports.
type rep struct {
	Wall  time.Duration `json:"wall_ns"`   // first call into the program until the report returns
	Setup time.Duration `json:"setup_ns"`  // the part of Wall before virtual time starts
	RSS   uint64        `json:"rss_bytes"` // largest peak RSS of any process of the repetition
	Out   outcome       `json:"outcome"`
	// Layers and Spans are the per-layer values and the layer-call spans
	// (probed repetitions only).
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`

	// fed is the federation report (federated workloads only).
	fed *fednet.Report
	// probes merges the wrappers' counters.
	probes probeCounts
	// runNs is the wall time spent executing virtual time: RunFor in a
	// sequential run, the coordinator's run phase in a federated one.
	runNs int64
	// events is the scheduler events fired (all shards).
	events uint64
	// ledger holds the layer-call durations by span name.
	ledger map[string]time.Duration
	// cutPipes and imbalance describe the assignment.
	cutPipes  int
	imbalance float64
}

func (w *workload) runRep(probed bool, tr *tracer) (*rep, error) {
	if w.fed {
		return w.runFed(probed, tr)
	}
	return w.runSeq(probed, tr)
}

// runSeq runs the workload on one sequential emulator. wall runs from
// the topology build to the final counters; virtual time starts at RunFor.
func (w *workload) runSeq(probed bool, tr *tracer) (*rep, error) {
	r := &rep{imbalance: 1}
	var root spanID
	if probed {
		root = tr.begin("rep", 0)
		defer tr.end(root)
		if err := w.seqLedger(tr, root); err != nil {
			return nil, err
		}
	}
	prof := w.profile()
	start := time.Now()
	var g *modelnet.Graph
	tr.span(probed, "topology.build", root, func() { g = w.topology() })
	var em *modelnet.Emulation
	var err error
	tr.span(probed, "modelnet.run", root, func() {
		em, err = modelnet.Run(g, modelnet.Options{Cores: 1, Profile: &prof, Seed: w.worldSeed})
	})
	if err != nil {
		return nil, err
	}
	var dl delays
	em.OnDeliver(dl.observe)
	host := em.NewHost
	var pr *probe
	if probed {
		pr = newProbe(em.Binding.Table)
		em.Emu.SetTable(pr)
		inj := pr.injector(em.Emu)
		host = func(vn pipes.VN) *netstack.Host { return em.NewHostVia(vn, inj) }
	}
	tr.span(probed, "app.install", root, func() {
		err = w.install(em.NumVNs(), func(pipes.VN) bool { return true }, host, em.SchedulerOf)
	})
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	tr.span(probed, "emucore.run", root, func() { em.RunFor(w.runFor()) })
	r.Out = outcome{Totals: em.Totals(), Accuracy: em.AccuracyStats(), Delays: dl}
	end := time.Now()
	r.Wall = end.Sub(start)
	r.Setup = runStart.Sub(start)
	r.runNs = end.Sub(runStart).Nanoseconds()
	r.events = em.Sched.Fired()
	r.RSS = selfMaxRSS()
	if probed {
		r.probes = pr.c
		r.ledger = tr.children(root)
		r.cutPipes = em.Assignment.CutStats(em.Distilled.Graph).CutPipes
	}
	return r, nil
}

// twin is the benchmark's federation scenario: the experiments' own
// Spec.Topology and Spec.Install, plus a delivery-delay accumulator and,
// when Probe is set, the counting wrappers. Workers re-exec this binary,
// so the registration exists there too.
const twin = "perfbench-twin"

type twinParams struct {
	Ring      *experiments.RingCBRSpec  `json:"ring,omitempty"`
	TStub     *experiments.TStubCBRSpec `json:"tstub,omitempty"`
	WorldSeed int64                     `json:"world_seed"`
	Probe     bool                      `json:"probe,omitempty"`
}

// twinReport is a worker's scenario report.
type twinReport struct {
	Delays delays      `json:"delays"`
	Probes probeCounts `json:"probes"`
}

func (p twinParams) workload() *workload {
	return &workload{ring: p.Ring, tstub: p.TStub, worldSeed: p.WorldSeed}
}

func init() {
	fednet.Register(twin, fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var p twinParams
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, err
			}
			return p.workload().topology(), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var p twinParams
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, err
			}
			rep := &twinReport{}
			env.Emu.OnDeliver = rep.Delays.observe
			host := env.NewHost
			var pr *probe
			if p.Probe {
				pr = newProbe(env.Binding.Table)
				env.Emu.SetTable(pr)
				inj := pr.injector(env.Emu)
				reg := registrar{env.Emu}
				host = func(vn pipes.VN) *netstack.Host { return netstack.NewHost(vn, env.Sched, inj, reg) }
			}
			err := p.workload().install(env.NumVNs(), env.Homed, host,
				func(pipes.VN) *vtime.Scheduler { return env.Sched })
			if err != nil {
				return nil, err
			}
			return func() json.RawMessage {
				if pr != nil {
					rep.Probes = pr.c
				}
				b, _ := json.Marshal(rep)
				return b
			}, nil
		},
	})
}

// registrar adapts a shard emulator to netstack's Registrar, as the
// worker's own host constructor does.
type registrar struct{ e *emucore.Emulator }

func (r registrar) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) {
	r.e.RegisterVN(vn, emucore.DeliverFunc(fn))
}

// runFed runs the workload as a federation of fedCores spawned workers
// over the loopback TCP data plane with adaptive synchronization. wall
// spans the whole fednet.Run call; its run phase (Report.WallMS) is the
// part after virtual time starts.
func (w *workload) runFed(probed bool, tr *tracer) (*rep, error) {
	r := &rep{}
	var root spanID
	if probed {
		root = tr.begin("rep", 0)
		defer tr.end(root)
		if err := w.fedLedger(r, tr, root); err != nil {
			return nil, err
		}
	}
	prof := w.profile()
	start := time.Now()
	var rp *fednet.Report
	var err error
	tr.span(probed, "fednet.run", root, func() {
		rp, err = fednet.Run(fednet.Options{
			Scenario: twin,
			Params:   twinParams{Ring: w.ring, TStub: w.tstub, WorldSeed: w.worldSeed, Probe: probed},
			Cores:    fedCores,
			Seed:     w.worldSeed,
			Profile:  &prof,
			RunFor:   w.runFor(),
			Sync:     modelnet.SyncAdaptive,

			DataPlane: fednet.DataTCP,
			Spawn:     true,
			Timeout:   60 * time.Second,
		})
	})
	if err != nil {
		return nil, err
	}
	r.Wall = time.Since(start)
	r.runNs = int64(rp.WallMS * 1e6)
	r.Setup = r.Wall - time.Duration(r.runNs)
	r.fed = rp
	r.Out = outcome{
		Totals:       rp.Totals,
		Accuracy:     rp.Accuracy,
		Windows:      rp.Sync.Windows,
		SerialRounds: rp.Sync.SerialRounds,
		Messages:     rp.Sync.Messages,
		Frames:       rp.Frames,
	}
	r.RSS = selfMaxRSS()
	for _, wr := range rp.Workers {
		var tw twinReport
		if err := json.Unmarshal(wr.Scenario, &tw); err != nil {
			return nil, fmt.Errorf("shard %d report: %w", wr.Shard, err)
		}
		r.Out.Delays.merge(tw.Delays)
		r.probes.add(tw.Probes)
		r.events += wr.Profile.EventsFired
		if wr.PeakRSSBytes > r.RSS {
			r.RSS = wr.PeakRSSBytes
		}
	}
	if probed {
		r.ledger = tr.children(root)
	}
	return r, nil
}

// selfMaxRSS is this process's peak resident set, in bytes.
func selfMaxRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) << 10 // Linux reports KiB
}
