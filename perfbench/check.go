package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"modelnet/internal/emucore"
)

// outcome is what a repetition computed: every field is a pure function
// of the workload and seed, so all repetitions agree exactly, and on the
// default seed it must equal the recorded reference.
type outcome struct {
	Totals       emucore.Totals   `json:"totals"`
	Accuracy     emucore.Accuracy `json:"accuracy"`
	Windows      uint64           `json:"windows"`
	SerialRounds uint64           `json:"serial_rounds"`
	Messages     uint64           `json:"messages"`
	Frames       uint64           `json:"frames"`
	Delays       delays           `json:"delays"`
}

// offered is the packets the emulator was asked to carry.
func (o *outcome) offered() uint64 {
	t := o.Totals
	return t.Injected + t.PhysDrops + t.NoRoute
}

// failedPackets is the offered packets the emulator failed to carry. Drops
// inside pipes are modelled outcomes, not failures.
func (o *outcome) failedPackets() uint64 { return o.Totals.PhysDrops + o.Totals.NoRoute }

// check applies the correctness gate: the conservation identity
// emucore.Totals documents, every delivery observed by the delay probe,
// and, when ref is non-nil, equality with the recorded reference.
func (o *outcome) check(ref *outcome) []error {
	var errs []error
	t := o.Totals
	if t.Injected == 0 || t.Delivered == 0 {
		errs = append(errs, fmt.Errorf("nothing carried: %+v", t))
	}
	if t.InFlight < 0 || t.Injected != t.Delivered+t.VirtualDrops+uint64(t.InFlight) {
		errs = append(errs, fmt.Errorf("conservation broken: injected %d != delivered %d + virtual drops %d + in flight %d",
			t.Injected, t.Delivered, t.VirtualDrops, t.InFlight))
	}
	if o.Delays.Count != t.Delivered {
		errs = append(errs, fmt.Errorf("delay probe saw %d deliveries, totals count %d", o.Delays.Count, t.Delivered))
	}
	if ref != nil {
		if err := o.sameAs(ref); err != nil {
			errs = append(errs, fmt.Errorf("differs from the recorded reference: %w", err))
		}
	}
	return errs
}

// sameAs reports the first field where two outcomes differ.
func (o *outcome) sameAs(p *outcome) error {
	if reflect.DeepEqual(o, p) {
		return nil
	}
	ja, _ := json.Marshal(o)
	jb, _ := json.Marshal(p)
	return fmt.Errorf("%s != %s", ja, jb)
}

// references is the reference.json layout: the default seed's outcome per
// workload.
type references struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]outcome `json:"workloads"`
}

func loadReference(name string) (*outcome, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if refs.Seed != defaultSeed {
		return nil, fmt.Errorf("reference.json holds seed %d, default is %d", refs.Seed, defaultSeed)
	}
	ref, ok := refs.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("reference.json has no %q", name)
	}
	return &ref, nil
}

// recordReference runs every workload once on the default seed and writes
// the outcomes. ring-fed2's totals, accuracy and delays come from a
// sequential IdealProfile run of the same spec, so the workload's check
// also enforces that federation reproduces the sequential emulation.
func recordReference(path string) error {
	refs := references{Seed: defaultSeed, Workloads: map[string]outcome{}}
	tr := &tracer{}
	for _, name := range workloadNames() {
		w, err := newWorkload(name, defaultSeed, 1)
		if err != nil {
			return err
		}
		r, err := w.runRep(false, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out := r.Out
		if name == "ring-fed2" {
			seq := *w
			seq.fed = false
			sr, err := seq.runRep(false, tr)
			if err != nil {
				return fmt.Errorf("%s sequential: %w", name, err)
			}
			out.Totals, out.Accuracy, out.Delays = sr.Out.Totals, sr.Out.Accuracy, sr.Out.Delays
		}
		if errs := out.check(nil); len(errs) > 0 {
			return fmt.Errorf("%s: %v", name, errs)
		}
		refs.Workloads[name] = out
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
