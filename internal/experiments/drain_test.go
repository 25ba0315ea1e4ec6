package experiments

// The paper's resource-modeled core (DefaultProfile) federated: its lazy
// handoffs consume the lookahead, so the run spends most of its barriers in
// serial drains. These tests pin what that path costs in control round trips
// and that it stays byte-identical to the in-process parallel runtime.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
	"modelnet/internal/pipes"
)

// drainRingSpec is a short ring-cbr run that drains under DefaultProfile.
func drainRingSpec() RingCBRSpec {
	return RingCBRSpec{Routers: 8, VNsPerRouter: 8, PacketsPerSec: 50, PacketBytes: 1000, DurationSec: 0.3, Seed: 11}
}

// runPaperFederated runs spec as a 2-worker TCP federation under
// DefaultProfile; adjust, when non-nil, tweaks the options further.
func runPaperFederated(t *testing.T, spec RingCBRSpec, adjust func(*fednet.Options)) *fednet.Report {
	t.Helper()
	rep, err := RunRingCBRFederated(spec, 2, fednet.DataTCP, WithFedOptions(func(o *fednet.Options) {
		o.Profile = nil // fednet.Options: nil = DefaultProfile
		if adjust != nil {
			adjust(o)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// scrapeSerialRounds reads modelnet_serial_rounds_total from a live metrics
// endpoint.
func scrapeSerialRounds(addr string) (uint64, error) {
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	v, ok := doc["modelnet_serial_rounds_total"].(float64)
	if !ok {
		return 0, fmt.Errorf("%s: no serial rounds gauge in %v", addr, doc)
	}
	return uint64(v), nil
}

// TestFednetDrainControlRounds: every window and every serial-drain pass
// that runs events costs one control round trip, plus the first barrier's
// bounds-only step — a drain pays no closing pass and no post-drain bounds
// step. The live serial-rounds gauges count only passes that ran events.
func TestFednetDrainControlRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	// The coordinator logs its endpoints as they come up and "drive done"
	// before it closes them, so the gauges are scraped at their final values.
	var coordAddr string
	var workerAddrs []string
	var coordGauge uint64
	var workerGauges []uint64
	var scrapeErr error
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		switch {
		case strings.HasPrefix(line, "fednet: coordinator metrics on http://"):
			coordAddr = strings.TrimSuffix(strings.TrimPrefix(line, "fednet: coordinator metrics on http://"), "/metrics")
		case strings.Contains(line, " metrics on http://"):
			addr := line[strings.Index(line, "http://")+len("http://"):]
			workerAddrs = append(workerAddrs, strings.TrimSuffix(addr, "/metrics"))
		case strings.HasPrefix(line, "fednet: drive done"):
			if coordGauge, scrapeErr = scrapeSerialRounds(coordAddr); scrapeErr != nil {
				return
			}
			for _, a := range workerAddrs {
				g, err := scrapeSerialRounds(a)
				if err != nil {
					scrapeErr = err
					return
				}
				workerGauges = append(workerGauges, g)
			}
		}
	}
	rep := runPaperFederated(t, drainRingSpec(), func(o *fednet.Options) {
		o.MetricsListen = "127.0.0.1:0"
		o.Log = logf
	})
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	st := rep.Sync
	if st.SerialRounds == 0 {
		t.Fatalf("DefaultProfile run drained nothing (%d windows): the test exercises no drain", st.Windows)
	}
	if want := st.Windows + st.SerialRounds + 1; rep.ControlRounds != want {
		t.Errorf("%d control rounds, want windows + serial rounds + 1 = %d + %d + 1 = %d",
			rep.ControlRounds, st.Windows, st.SerialRounds, want)
	}
	if coordGauge != st.SerialRounds {
		t.Errorf("coordinator serial-rounds gauge reads %d, the run counted %d", coordGauge, st.SerialRounds)
	}
	if len(workerGauges) != 2 {
		t.Fatalf("scraped %d worker gauges, want 2", len(workerGauges))
	}
	// A worker counts the passes in which it ran events; every counted pass
	// ran events on at least one worker.
	if sum := workerGauges[0] + workerGauges[1]; workerGauges[0] > st.SerialRounds ||
		workerGauges[1] > st.SerialRounds || sum < st.SerialRounds {
		t.Errorf("worker serial-rounds gauges %v do not cover the run's %d serial rounds", workerGauges, st.SerialRounds)
	}
	rp := rep.RunProfile()
	if rp.ControlRounds != rep.ControlRounds {
		t.Errorf("profile control_rounds %d, report %d", rp.ControlRounds, rep.ControlRounds)
	}
	if want := fmt.Sprintf("%d control rounds", rep.ControlRounds); !strings.Contains(rp.SyncLine(), want) {
		t.Errorf("sync line %q does not report %q", rp.SyncLine(), want)
	}
}

// TestFednetMatchesParallelUnderDefaultProfile extends the determinism
// contract to the paper's own core model, where serial drains carry the
// run: two worker processes and the two-core in-process runtime must agree
// on every counter and every delivery time.
func TestFednetMatchesParallelUnderDefaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := drainRingSpec()
	paper := modelnet.DefaultProfile()
	em, err := modelnet.Run(spec.Topology(), modelnet.Options{Cores: 2, Parallel: true, Profile: &paper, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var deliveries []float64
	em.OnDeliver(func(_ *pipes.Packet, at modelnet.Time) {
		mu.Lock() // the hook fires concurrently across shards
		deliveries = append(deliveries, at.Seconds())
		mu.Unlock()
	})
	if err := spec.Install(em.NumVNs(), allHomed, em.NewHost, em.SchedulerOf); err != nil {
		t.Fatal(err)
	}
	em.RunFor(spec.RunFor())
	fed := runPaperFederated(t, spec, nil)

	// The socket barrier replicates the in-process transport move for move.
	if st := em.Par.Stats(); st.SerialRounds == 0 || st.Windows != fed.Sync.Windows || st.SerialRounds != fed.Sync.SerialRounds {
		t.Fatalf("windows/serial rounds: in-process %d/%d, fednet %d/%d (want equal, with drains)",
			st.Windows, st.SerialRounds, fed.Sync.Windows, fed.Sync.SerialRounds)
	}
	if tot := em.Totals(); tot.Delivered == 0 || tot != fed.Totals {
		t.Errorf("totals diverge or are vacuous:\n in-process %+v\n fednet     %+v", tot, fed.Totals)
	}
	if acc := em.AccuracyStats(); acc != fed.Accuracy {
		t.Errorf("accuracy diverges:\n in-process %+v\n fednet     %+v", acc, fed.Accuracy)
	}
	if drops := em.DropsByReason(); !equalU64(drops, fed.DropsByReason) {
		t.Errorf("drop taxonomy diverges:\n in-process %v\n fednet     %v", drops, fed.DropsByReason)
	}
	if drops := em.PipeDrops(); !equalU64(drops, fed.PipeDrops) {
		t.Errorf("per-pipe drops diverge:\n in-process %v\n fednet     %v", drops, fed.PipeDrops)
	}
	got := append([]float64(nil), fed.Deliveries...)
	sort.Float64s(got)
	sort.Float64s(deliveries)
	if !reflect.DeepEqual(got, deliveries) {
		t.Errorf("sorted delivery times diverge: %d fednet vs %d in-process samples", len(got), len(deliveries))
	}
}
