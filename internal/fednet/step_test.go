package fednet

import (
	"strings"
	"testing"

	"modelnet/internal/edge"
	"modelnet/internal/vtime"
)

// TestStepFloor pins the live-ingress stamping rule: a step's floor is no
// lower than the clock floor, the paced wall clock, or any finite grant of
// the round, and Forever grants bound nothing.
func TestStepFloor(t *testing.T) {
	const F = vtime.Forever
	for _, c := range []struct {
		name        string
		clock, wall vtime.Time
		grants      []vtime.Time
		want        vtime.Time
	}{
		{"bounds-only step, unpaced", 7, 0, nil, 7},
		{"bounds-only step, wall ahead", 7, 9, nil, 9},
		{"grants behind the clock", 10, 0, []vtime.Time{3, 8}, 10},
		{"one grant ahead", 10, 0, []vtime.Time{3, 15}, 15},
		{"max grant wins", 10, 12, []vtime.Time{20, 15, 18}, 20},
		{"wall ahead of every grant", 10, 30, []vtime.Time{20, 25}, 30},
		{"Forever ignored", 10, 0, []vtime.Time{F, 14}, 14},
		{"all Forever", 10, 11, []vtime.Time{F, F}, 11},
	} {
		got := stepFloor(c.clock, c.wall, c.grants)
		if got != c.want {
			t.Errorf("%s: stepFloor(%d, %d, %v) = %d, want %d", c.name, c.clock, c.wall, c.grants, got, c.want)
		}
		if got < c.clock || got < c.wall || got == F {
			t.Errorf("%s: floor %d below the clock %d or wall %d, or unbounded", c.name, got, c.clock, c.wall)
		}
		for _, g := range c.grants {
			if g != F && got < g {
				t.Errorf("%s: floor %d below finite grant %d", c.name, got, g)
			}
		}
	}
}

// TestOptionsEdgeNeedsRealTime: a gateway lease without pacing is refused
// (only pacing keeps grants, and so ingress stamps, near the wall clock),
// and Recover/FailSpec refuse exactly the live edge — paced runs recover.
func TestOptionsEdgeNeedsRealTime(t *testing.T) {
	lease := &edge.GatewayConfig{Maps: []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}}}
	base := func() Options {
		return Options{Scenario: "x", Cores: 2, RunFor: vtime.Second, Spawn: true}
	}
	for _, c := range []struct {
		name    string
		mod     func(*Options)
		wantErr string
	}{
		{"edge unpaced", func(o *Options) { o.Edge = lease }, "RealTime"},
		{"edge paced", func(o *Options) { o.Edge, o.RealTime = lease, true }, ""},
		{"paced recover", func(o *Options) { o.RealTime, o.Recover = true, true }, ""},
		{"paced sigkill", func(o *Options) {
			o.RealTime, o.Recover = true, true
			o.FailSpec = &FailSpec{Shard: 1, Round: 50, Mode: FailSigkill}
		}, ""},
		{"edge recover", func(o *Options) { o.Edge, o.RealTime, o.Recover = lease, true, true }, "round log"},
		{"edge failspec", func(o *Options) {
			o.Edge, o.RealTime = lease, true
			o.FailSpec = &FailSpec{Shard: 0, Round: 3}
		}, "round log"},
	} {
		o := base()
		c.mod(&o)
		err := o.defaults()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.wantErr)
		}
	}
}
