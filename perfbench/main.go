// Command perfbench is the repository's benchmark: it runs one workload of
// the emulator for a fixed wall-clock budget, checks that every run's
// outputs are correct, and prints the end-to-end metrics (timed mode) or
// the per-layer ledger (traced mode) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload ring-seq --seed 1 --seconds 15 --trace 0
//
// Everything is measured from outside the program: the benchmark times its
// own calls into the modules' public functions, reads the counters the
// program already reports, and installs two wrappers the public API
// accepts (a bind.Table and a netstack.Injector). See README.md.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"modelnet/internal/fednet"
)

//go:embed reference.json
var referenceJSON []byte

func main() {
	fednet.MaybeRunWorker() // federated workloads re-exec this binary as their workers
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var record string
	var child, probe bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the recorded reference applies to the default")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "wall-clock budget for the measured repetitions")
	fs.IntVar(&trace, "trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplier on each workload's virtual duration (smoke tests use a small one)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its span file to")
	fs.StringVar(&record, "record", "", "run every workload once on the default seed, write the reference to this file, and exit")
	fs.BoolVar(&child, "rep", false, "internal: run one repetition and print it as JSON")
	fs.BoolVar(&probe, "probe", false, "internal: with -rep, install the probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	var err error
	switch {
	case record != "":
		err = recordReference(record)
	case child:
		err = runRepProcess(cfg, probe, stdout)
	default:
		var res *result
		if res, err = measure(cfg, stdout); err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Fprintln(stdout, string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repTimeout bounds one repetition process; a stalled federation fails
// the run instead of hanging it.
const repTimeout = 100 * time.Second

// measure runs cfg's workload repeatedly until its budget is spent and
// reduces the repetitions to one result. A repetition that errors or
// fails the correctness gate makes the whole run incorrect.
func measure(cfg config, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	var ref *outcome
	if cfg.seed == defaultSeed && cfg.scale == 1 {
		if ref, err = loadReference(w.name); err != nil {
			return nil, err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	prov := newProvenance(cfg)
	provLine, _ := json.Marshal(prov)
	fmt.Fprintf(log, "provenance %s\n", provLine)

	tr := &tracer{epoch: time.Now()}
	var timed, probed []*rep
	var failures []string
	var attempted, failed uint64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minReps := 1
	if cfg.trace {
		minReps = 2
	}
	var durs []time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Now().Add(medianDur(durs)).After(deadline) {
			break
		}
		// A traced run alternates untraced and probed repetitions, so the
		// tracing overhead is measured under the same host conditions.
		probe := cfg.trace && i%2 == 1
		t0 := time.Now()
		r, err := runChild(exe, cfg, probe)
		durs = append(durs, time.Since(t0))
		if err != nil {
			failures = append(failures, fmt.Sprintf("rep %d: %v", i, err))
			attempted++
			failed++
			continue
		}
		off := r.Out.offered()
		attempted += off
		if errs := r.Out.check(ref); len(errs) > 0 {
			for _, e := range errs {
				failures = append(failures, fmt.Sprintf("rep %d: %v", i, e))
			}
			failed += off
		} else {
			failed += r.Out.failedPackets()
		}
		fmt.Fprintf(log, "rep %d probe=%v wall_s=%.4f setup_s=%.4f rss_mb=%.1f delivered=%d\n",
			i, probe, r.Wall.Seconds(), r.Setup.Seconds(), float64(r.RSS)/(1<<20), r.Out.Totals.Delivered)
		if probe {
			tr.graft(t0, r.Spans)
			probed = append(probed, r)
		} else {
			timed = append(timed, r)
		}
	}
	// Every repetition of one workload and seed is the same emulation: the
	// program is deterministic in virtual time, and the probes must not
	// change what it computes.
	all := append(append([]*rep(nil), timed...), probed...)
	for i := 1; i < len(all); i++ {
		if err := all[i].Out.sameAs(&all[0].Out); err != nil {
			failures = append(failures, fmt.Sprintf("repetitions disagree: %v", err))
			break
		}
	}
	if len(timed) == 0 || (cfg.trace && len(probed) == 0) {
		failures = append(failures, "no successful repetition")
	}
	for _, f := range failures {
		fmt.Fprintln(log, "FAIL", f)
	}
	correct := len(failures) == 0
	res := &result{Correct: correct, Attempted: attempted, Failed: failed}
	if !cfg.trace {
		res.Metrics = endToEndMetrics(timed, correct, attempted, failed)
		return res, nil
	}
	if res.Metrics, err = layerMetrics(w, timed, probed); err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(spans, prov); err != nil {
		return nil, err
	}
	return res, nil
}

// runChild runs one repetition in a fresh process of this binary and
// decodes the JSON it prints.
func runChild(exe string, cfg config, probe bool) (*rep, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-rep", "-probe="+strconv.FormatBool(probe),
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("repetition output: %w", err)
	}
	return &r, nil
}

// runRepProcess is the repetition process: one run of the workload, with
// the per-layer values and spans when probed.
func runRepProcess(cfg config, probe bool, stdout io.Writer) error {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	tr := &tracer{epoch: time.Now()}
	r, err := w.runRep(probe, tr)
	if err != nil {
		return err
	}
	if probe {
		r.Layers = layerValues(r)
		r.Spans = tr.spans
	}
	return json.NewEncoder(stdout).Encode(r)
}

// medianDur is the median of ds (zero when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// median is the median of xs (zero when empty); even counts average the
// middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum is the smallest of xs (zero when empty).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// endToEndMetrics reduces the timed repetitions to the end-to-end metrics:
// medians of the wall-clock figures, the smallest per-repetition peak RSS,
// and the deterministic delay figures (identical across repetitions). A
// repetition's peak RSS is the workload's floor plus a garbage-collector
// overshoot that depends on timing (±10% between identical repetitions);
// the minimum estimates the floor, which is what a change to the program
// moves.
func endToEndMetrics(reps []*rep, correct bool, attempted, failed uint64) map[string]metric {
	var wall, setup, pps, rss []float64
	for _, r := range reps {
		wall = append(wall, r.Wall.Seconds())
		setup = append(setup, r.Setup.Seconds())
		if run := (r.Wall - r.Setup).Seconds(); run > 0 {
			pps = append(pps, float64(r.Out.Totals.Delivered)/run)
		}
		rss = append(rss, float64(r.RSS)/(1<<20))
	}
	okFrac := 0.0
	if correct && attempted > 0 {
		okFrac = 1 - float64(failed)/float64(attempted)
	}
	var d delays
	if len(reps) > 0 {
		d = reps[0].Out.Delays
	}
	return map[string]metric{
		"wall_s":        {median(wall), "s"},
		"setup_s":       {median(setup), "s"},
		"pps":           {median(pps), "pkt/s"},
		"peak_rss_mb":   {minimum(rss), "MiB"},
		"delay_mean_ms": {d.mean() * 1e3, "ms"},
		"delay_max_ms":  {float64(d.MaxNs) / 1e6, "ms"},
		"ok_frac":       {okFrac, "ratio"},
	}
}
