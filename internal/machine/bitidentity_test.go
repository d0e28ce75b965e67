package machine_test

import (
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/proto"
	"flashsim/internal/workload"
)

// TestContentionResultsPinned holds the contention model's outputs
// still while its bookkeeping (sim.Server windows, the link table, the
// barrier's buffers) is optimised: gups and oltp at 8 nodes under
// SimOS-Mipsy and the hardware reference, once with default timing and
// once with zero-duration reservations in play (router pass-through and
// one PP handler at 0 — both inside the registry's bounds, and covered
// by no other golden). The values were recorded from the forward-scan,
// map-keyed implementation this PR replaced; a mismatch means simulated
// timing moved, which a speed-only change must never do.
func TestContentionResultsPinned(t *testing.T) {
	type pin struct {
		exec, total int64
		cases       [proto.NumCases]uint64
	}
	zeroDur := []param.Setting{{Path: "flash.router_ns", Value: "0"}, {Path: "magic.occupancy.ni_get_fwd", Value: "0"}}
	rows := []struct {
		app      string
		ref      bool
		settings []param.Setting
		want     pin
	}{
		{"gups", false, nil, pin{11773988, 11897835, [proto.NumCases]uint64{1119, 3343, 728, 4283, 20872, 27549}}},
		{"gups", true, nil, pin{12080754, 12209079, [proto.NumCases]uint64{1068, 3376, 403, 4305, 20909, 28129}}},
		{"gups", false, zeroDur, pin{10886588, 11009780, [proto.NumCases]uint64{1130, 3350, 741, 4295, 20877, 27546}}},
		{"gups", true, zeroDur, pin{10824183, 10951419, [proto.NumCases]uint64{1088, 3332, 404, 4282, 20905, 28037}}},
		{"oltp", false, nil, pin{6703600, 7179743, [proto.NumCases]uint64{5576, 430, 11779, 3864, 1913, 3059}}},
		{"oltp", true, nil, pin{7215418, 7695895, [proto.NumCases]uint64{5575, 426, 11747, 3860, 1922, 3048}}},
		{"oltp", false, zeroDur, pin{6391647, 6867135, [proto.NumCases]uint64{5571, 430, 11772, 3865, 1916, 3062}}},
		{"oltp", true, zeroDur, pin{6769873, 7249261, [proto.NumCases]uint64{5571, 435, 11752, 3856, 1915, 3057}}},
	}
	const procs = 8
	for _, r := range rows {
		name := r.app + "/sim"
		if r.ref {
			name = r.app + "/hw"
		}
		if r.settings != nil {
			name += "/zero-dur"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.SimOSMipsy(procs, 150, true)
			if r.ref {
				cfg = hw.Config(procs, true)
				cfg.JitterPct = 0
			}
			cfg.CheckCoherence = true
			cfg, err := param.ApplySettings(cfg, r.settings)
			if err != nil {
				t.Fatal(err)
			}
			def, err := workload.Lookup(r.app)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := def.Resolve(nil, true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := machine.Run(cfg, def.Build(vals, procs))
			if err != nil {
				t.Fatal(err)
			}
			got := pin{int64(res.Exec), int64(res.Total), res.CaseCounts}
			if got != r.want {
				t.Errorf("got %+v, want %+v", got, r.want)
			}
		})
	}
}
