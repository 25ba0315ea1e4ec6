package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"modelnet/internal/emucore"
	"modelnet/internal/fednet"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself for each repetition ("-rep") and each
// federation worker (fednet's spawn variable).
func TestMain(m *testing.M) {
	fednet.MaybeRunWorker()
	if len(os.Args) > 1 && os.Args[1] == "-rep" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// printed lists the metrics a timed and a traced run print, with units.
func printed() (endToEnd, perLayer map[string]string) {
	endToEnd = map[string]string{}
	for k, m := range endToEndMetrics(nil, true, 1, 0) {
		endToEnd[k] = m.Unit
	}
	perLayer = map[string]string{}
	for _, l := range layers {
		perLayer[l.name] = l.unit
	}
	return endToEnd, perLayer
}

func TestMetricNames(t *testing.T) {
	e2e, pl := printed()
	for _, set := range []map[string]string{e2e, pl} {
		for name := range set {
			if !metricName.MatchString(name) || len(name) > 64 {
				t.Errorf("metric name %q does not match %v", name, metricName)
			}
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	e2e, pl := printed()
	listed := map[string]string{}
	for _, m := range f.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !sameSet(listed, e2e) {
		t.Errorf("end_to_end lists %v, a timed run prints %v", listed, e2e)
	}
	listed = map[string]string{}
	for _, m := range f.PerLayer {
		listed[m.Name] = m.Unit
	}
	if !sameSet(listed, pl) {
		t.Errorf("per_layer lists %v, a traced run prints %v", listed, pl)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "perfbench" || strings.Join(f.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v over paths %v: want bash perfbench/run.sh over [perfbench]", f.Command, f.Paths)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, the benchmark runs %s", got, want)
	}
}

func sameSet(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestReferenceCoversEveryWorkload keeps reference.json in step with the
// workload list.
func TestReferenceCoversEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		ref, err := loadReference(name)
		if err != nil {
			t.Fatal(err)
		}
		if errs := ref.check(nil); len(errs) > 0 {
			t.Errorf("%s reference fails the gate: %v", name, errs)
		}
	}
}

func TestGateRejects(t *testing.T) {
	good := outcome{
		Totals: emucore.Totals{Injected: 10, Delivered: 8, VirtualDrops: 1, InFlight: 1},
		Delays: delays{Count: 8, SumNs: 80, MaxNs: 12},
	}
	if errs := good.check(&good); len(errs) > 0 {
		t.Fatalf("consistent outcome rejected: %v", errs)
	}
	leak := good
	leak.Totals.Delivered = 7
	leak.Delays.Count = 7
	if len(leak.check(nil)) == 0 {
		t.Error("a packet that vanished passed the conservation check")
	}
	other := good
	other.Windows = 3
	if len(other.check(&good)) == 0 {
		t.Error("an outcome differing from the reference passed")
	}
}

// mustWork lists the per-layer metrics that read above 0 on a workload:
// the layers it exercises.
func mustWork(name string) []string {
	w, _ := newWorkload(name, defaultSeed, 1)
	ks := []string{"topology.build_s", "distill.s", "bind.s", "bind.lookups", "emucore.injects",
		"emucore.pipe_hops", "emucore.run_s", "vtime.events", "wire.ring.bytes_per_msg", "wire.tcp.allocs_per_msg"}
	if !w.ideal {
		ks = append(ks, "emucore.lag_mean_us", "emucore.lag_max_us")
	}
	if w.fed {
		ks = append(ks, "bind.shard_views_s", "parcore.windows", "parcore.messages", "fednet.frames",
			"fednet.bytes_per_msg", "fednet.setup_mb", "fednet.startup_s", "fednet.materialized_pipes")
	}
	return ks
}

// TestSmoke runs every workload at a tiny scale in both modes and requires
// the correctness gate to pass and every metric to be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns federations")
	}
	f := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", name, "-seed", "3", "-seconds", "0", "-scale", "0.05", "-trace", trace, "-out", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("gate failed: %+v\n%s", res, out.String())
				}
				var want []string
				if trace == "0" {
					for _, m := range f.EndToEnd {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range f.PerLayer {
						want = append(want, m.Name)
					}
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(want)
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("printed %v, want %v", got, want)
				}
				if trace == "1" {
					for _, k := range mustWork(name) {
						if res.Metrics[k].Value <= 0 {
							t.Errorf("%s = %v, want > 0 on %s", k, res.Metrics[k].Value, name)
						}
					}
				}
			})
		}
	}
}
