package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// delays accumulates the virtual one-way delay (injection to delivery) of
// every delivered packet: the delay the emulated network imposed, lag
// included.
type delays struct {
	Count uint64 `json:"count"`
	SumNs int64  `json:"sum_ns"`
	MaxNs int64  `json:"max_ns"`
}

func (d *delays) observe(pkt *pipes.Packet, at vtime.Time) {
	ns := int64(at.Sub(pkt.Injected))
	d.Count++
	d.SumNs += ns
	if ns > d.MaxNs {
		d.MaxNs = ns
	}
}

// mean is the mean delay in seconds (zero with no deliveries).
func (d delays) mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.SumNs) / float64(d.Count) / 1e9
}

func (d *delays) merge(o delays) {
	d.Count += o.Count
	d.SumNs += o.SumNs
	if o.MaxNs > d.MaxNs {
		d.MaxNs = o.MaxNs
	}
}

// probeCounts are the wrappers' counters.
type probeCounts struct {
	Lookups  uint64 `json:"lookups"`
	LookupNs int64  `json:"lookup_ns"`
	Hops     uint64 `json:"hops"` // Σ route length returned by Lookup
	Injects  uint64 `json:"injects"`
	InjectNs int64  `json:"inject_ns"` // includes the Lookup the emulator makes
}

func (c *probeCounts) add(o probeCounts) {
	c.Lookups += o.Lookups
	c.LookupNs += o.LookupNs
	c.Hops += o.Hops
	c.Injects += o.Injects
	c.InjectNs += o.InjectNs
}

// probe wraps an emulator's routing table and injection path, counting
// and timing every call. It forwards the reroute epoch of tables that
// have one (bind.ShardTable), so the emulator pins the same epochs.
type probe struct {
	inner bind.Table
	epoch interface{ Epoch() int32 }
	c     probeCounts
}

func newProbe(inner bind.Table) *probe {
	p := &probe{inner: inner}
	p.epoch, _ = inner.(interface{ Epoch() int32 })
	return p
}

// Lookup implements bind.Table.
func (p *probe) Lookup(src, dst pipes.VN) (bind.Route, bool) {
	t0 := time.Now()
	r, ok := p.inner.Lookup(src, dst)
	p.c.LookupNs += int64(time.Since(t0))
	p.c.Lookups++
	p.c.Hops += uint64(len(r))
	return r, ok
}

// NumVNs implements bind.Table.
func (p *probe) NumVNs() int { return p.inner.NumVNs() }

// Epoch forwards the inner table's reroute epoch (0 for tables without).
func (p *probe) Epoch() int32 {
	if p.epoch == nil {
		return 0
	}
	return p.epoch.Epoch()
}

// injector returns a netstack.Injector that times each injection into e.
func (p *probe) injector(e *emucore.Emulator) *injector { return &injector{p: p, e: e} }

type injector struct {
	p *probe
	e *emucore.Emulator
}

// Inject implements netstack.Injector.
func (in *injector) Inject(src, dst pipes.VN, size int, payload any) bool {
	t0 := time.Now()
	ok := in.e.Inject(src, dst, size, payload)
	in.p.c.InjectNs += int64(time.Since(t0))
	in.p.c.Injects++
	return ok
}

// spanID names a recorded span; 0 is "no parent".
type spanID int

// span is one timed call into a layer.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them once, at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent spanID) spanID {
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id spanID) {
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// span runs fn, inside a span named name when on.
func (t *tracer) span(on bool, name string, parent spanID, fn func()) {
	if !on {
		fn()
		return
	}
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// graft adds a repetition process's spans, whose times count from that
// process's start, under this tracer's epoch (the process started at t0).
func (t *tracer) graft(t0 time.Time, spans []span) {
	off := int64(t0.Sub(t.epoch))
	base := spanID(len(t.spans))
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += off
		s.End += off
		t.spans = append(t.spans, s)
	}
}

// children sums the durations of parent's direct child spans by name.
func (t *tracer) children(parent spanID) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == parent && s.End > 0 {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

func (t *tracer) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
