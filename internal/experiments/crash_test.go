package experiments

// Crash recovery under a full application workload: the flaky-edge scenario
// carries everything the runtime can hold — scripted link dynamics, lossy
// pipes forcing netstack TCP retransmission state, web-replica application
// state, and a packet trace — and a worker crash mid-run must still
// reconverge byte-identically. This is the strongest recovery check in the
// repo: the respawned worker rebuilds all of that state purely by
// deterministic replay, and the sequential baseline is the referee.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
	"modelnet/internal/obs"
)

func TestCrashRecoveryFlakyEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	spec := FlakyEdgeSpec{
		Web: WebReplRingSpec{
			Routers:      6,
			VNsPerRouter: 3,
			LossPct:      0.5,
			TraceSec:     1.5,
			MinRate:      30,
			MaxRate:      60,
			MedianSize:   8 << 10,
			DrainSec:     4.5,
			Seed:         42,
		},
		Trace:           "wifi",
		FailSec:         0.6,
		RecoverSec:      2.4,
		RerouteDelaySec: 0.25,
	}
	fail, err := spec.CutFailLink(2)
	if err != nil {
		t.Fatal(err)
	}
	spec.FailLink = fail
	seq, err := RunFlakyEdgeLocal(spec, 1, false, true)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Trace.CanonicalBytes()
	if len(seq.Trace.Canonical()) == 0 {
		t.Fatal("sequential baseline recorded no canonical trace events")
	}
	for _, shard := range []int{0, 1} {
		fed, err := RunFlakyEdgeFederated(spec, 2, fednet.DataUDP,
			WithFedOptions(func(o *fednet.Options) {
				o.Trace = true
				o.Recover = true
				o.FailSpec = &fednet.FailSpec{Shard: shard, Round: 5}
			}))
		if err != nil {
			t.Fatalf("crash shard %d: %v", shard, err)
		}
		if fed.Recoveries != 1 {
			t.Fatalf("crash shard %d: %d recoveries, want 1", shard, fed.Recoveries)
		}
		if fed.Totals != seq.Totals {
			t.Errorf("crash shard %d: totals diverge:\n seq       %+v\n recovered %+v", shard, seq.Totals, fed.Totals)
		}
		if !equalU64(seq.Drops, fed.DropsByReason) {
			t.Errorf("crash shard %d: drop taxonomy diverges:\n seq       %v\n recovered %v", shard, seq.Drops, fed.DropsByReason)
		}
		var got *obs.Trace = fed.Trace
		if got == nil {
			t.Fatalf("crash shard %d: no trace recorded", shard)
		}
		sameTrace(t, "flaky crash recovery", want, got.CanonicalBytes())
		// The application-level report — requests served, retransmissions,
		// latency sums accumulated inside the workers' netstack TCP state —
		// must survive the respawn too.
		fedRep, err := FlakyEdgeFederatedReport(fed)
		if err != nil {
			t.Fatal(err)
		}
		if fedRep.Comparable() != seq.Web.Comparable() {
			t.Errorf("crash shard %d: scenario reports diverge:\n seq       %+v\n recovered %+v",
				shard, seq.Web.Comparable(), fedRep.Comparable())
		}
	}
}

// TestCrashRecoveryCFSRing crashes a worker of the CFS workload over the
// TCP data plane: recovery must replace a connection in the TCP mesh (not
// just swap a UDP source address) and replay Chord lookups and block
// fetches whose bodies ride the recursive payload codecs.
func TestCrashRecoveryCFSRing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	spec := CFSRingSpec{
		Routers:      4,
		VNsPerRouter: 3,
		FileKB:       64,
		WindowKB:     24,
		Downloaders:  []int{0, 7},
		DurationSec:  5,
		Seed:         21,
	}
	seq, err := RunCFSRingLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := RunCFSRingFederated(spec, 2, fednet.DataTCP,
		WithFedOptions(func(o *fednet.Options) {
			o.Recover = true
			o.FailSpec = &fednet.FailSpec{Shard: 1, Round: 4}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if fed.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", fed.Recoveries)
	}
	if seq.Totals != fed.Totals {
		t.Errorf("totals diverge:\n seq       %+v\n recovered %+v", seq.Totals, fed.Totals)
	}
	fedRep, err := CFSFederatedReport(fed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.CFS, fedRep) {
		t.Errorf("CFS reports diverge:\n seq       %+v\n recovered %+v", seq.CFS, fedRep)
	}
	sameCDF(t, "cfs-ring crash recovery", seq.Deliveries, sampleOf(fed))
}

// TestPacedSigkillRecovery: a wall-clock-paced run recovers like any other.
// The wall clock only picks the grants, and the grants travel in the logged
// step bodies, so a worker SIGKILLed mid-run is replayed back and the run
// ends with the same counters as the same paced run without the crash.
func TestPacedSigkillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses in real time")
	}
	spec := RingCBRSpec{Routers: 8, VNsPerRouter: 2, PacketsPerSec: 200, PacketBytes: 500, DurationSec: 0.5, Seed: 5}
	paced := func(fail *fednet.FailSpec) *fednet.Report {
		t.Helper()
		rep, err := RunRingCBRFederated(spec, 2, fednet.DataUDP, WithFedOptions(func(o *fednet.Options) {
			o.RealTime, o.Pace = true, modelnet.Seconds(0.001)
			o.Recover = fail != nil
			o.FailSpec = fail
		}))
		if err != nil {
			t.Fatalf("paced run (fail %+v): %v", fail, err)
		}
		return rep
	}
	want := paced(nil)
	if want.Totals.Delivered == 0 || want.Sync.Messages == 0 {
		t.Fatalf("paced baseline is vacuous: %d delivered, %d cross-core messages", want.Totals.Delivered, want.Sync.Messages)
	}
	got := paced(&fednet.FailSpec{Shard: 1, Round: 50, Mode: fednet.FailSigkill})
	if got.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", got.Recoveries)
	}
	if got.Totals != want.Totals {
		t.Errorf("totals diverge:\n uncrashed %+v\n recovered %+v", want.Totals, got.Totals)
	}
	if !equalU64(want.PipeDrops, got.PipeDrops) {
		t.Errorf("per-pipe drops diverge:\n uncrashed %v\n recovered %v", want.PipeDrops, got.PipeDrops)
	}
	if !equalU64(want.DropsByReason, got.DropsByReason) {
		t.Errorf("drop taxonomy diverges:\n uncrashed %v\n recovered %v", want.DropsByReason, got.DropsByReason)
	}
}

// TestDrainSigkillRecovery kills a worker at the start of a serial-drain
// pass under the paper's resource-modeled core. A drain pass is a step round,
// so the fault lands in one, and the respawned worker's replay byte-compares
// every logged drain reply, post-pass bounds included, plus the checkpoint
// digest a drain round pushed. The run must end with the uncrashed run's
// counters and synchronization counts.
func TestDrainSigkillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	spec := drainRingSpec()
	// Round 41 is the second pass of a drain whose first pass, round 40, is
	// also a checkpoint round (DefaultCkptEvery = 4).
	const killRound = 41
	var injected []string
	run := func(fail *fednet.FailSpec) *fednet.Report {
		t.Helper()
		return runPaperFederated(t, spec, func(o *fednet.Options) {
			o.Recover = fail != nil
			o.FailSpec = fail
			o.Log = func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, "fault injection") {
					injected = append(injected, line)
				}
			}
		})
	}
	want := run(nil)
	got := run(&fednet.FailSpec{Shard: 1, Round: killRound, Mode: fednet.FailSigkill})
	if len(injected) != 1 || !strings.HasSuffix(injected[0], fmt.Sprintf("step round %d (drain pass)", killRound)) {
		t.Fatalf("fault did not land in a drain pass: %q", injected)
	}
	if got.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", got.Recoveries)
	}
	if got.Totals != want.Totals {
		t.Errorf("totals diverge:\n uncrashed %+v\n recovered %+v", want.Totals, got.Totals)
	}
	if got.Accuracy != want.Accuracy {
		t.Errorf("accuracy diverges:\n uncrashed %+v\n recovered %+v", want.Accuracy, got.Accuracy)
	}
	if !equalU64(want.PipeDrops, got.PipeDrops) {
		t.Errorf("per-pipe drops diverge:\n uncrashed %v\n recovered %v", want.PipeDrops, got.PipeDrops)
	}
	if !equalU64(want.DropsByReason, got.DropsByReason) {
		t.Errorf("drop taxonomy diverges:\n uncrashed %v\n recovered %v", want.DropsByReason, got.DropsByReason)
	}
	if got.Sync.Windows != want.Sync.Windows || got.Sync.SerialRounds != want.Sync.SerialRounds ||
		got.ControlRounds != want.ControlRounds {
		t.Errorf("sync counts diverge: uncrashed %d windows / %d serial / %d control rounds, recovered %d / %d / %d",
			want.Sync.Windows, want.Sync.SerialRounds, want.ControlRounds,
			got.Sync.Windows, got.Sync.SerialRounds, got.ControlRounds)
	}
}

// TestFednetCrashRowRecorded drives the scaling study's crash-row helper at
// a small size: the BENCH_fednet.json artifact must carry a row with the
// recoveries and recovery_wall_ns columns filled and counters matching the
// sequential baseline.
func TestFednetCrashRowRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	cfg := FednetConfig{
		Ring: RingCBRSpec{
			Routers:       4,
			VNsPerRouter:  3,
			PacketsPerSec: 100,
			PacketBytes:   500,
			DurationSec:   1,
			Seed:          11,
		},
		DataPlane: fednet.DataUDP,
	}
	res := &FednetResult{Deterministic: true}
	seq, err := RunRingCBRLocal(cfg.Ring, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	res.Rows = append(res.Rows, totalsRow(ScenarioRingCBR, "seq", 1, seq.Totals, seq.WallMS))
	if err := runFednetCrashRow(res, cfg); err != nil {
		t.Fatal(err)
	}
	row := res.Rows[len(res.Rows)-1]
	if row.Scenario != ScenarioRingCBR+"-crash" || row.Mode != "fednet" {
		t.Fatalf("unexpected crash row: %+v", row)
	}
	if row.Recoveries != 1 {
		t.Errorf("crash row records %d recoveries, want 1", row.Recoveries)
	}
	if row.RecoveryWallNs <= 0 {
		t.Errorf("crash row has no recovery wall time")
	}
	if !res.Deterministic {
		t.Error("recovered run diverged from the sequential baseline")
	}
	var sm modelnet.SyncMode
	if row.Sync != sm.String() {
		t.Errorf("crash row sync algebra %q, want the default %q", row.Sync, sm.String())
	}
}
