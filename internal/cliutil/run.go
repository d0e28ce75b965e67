package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// sampleSettings translates -sample/-sample-cold into sampling.*
// parameter settings. "on" (or "default") selects the default
// schedule; otherwise the spec is period:window:warmup[:phase] in
// instruction counts. Returned settings are validated against the
// registry like any -set.
func (f *Flags) sampleSettings() ([]param.Setting, error) {
	if f.Sample == "" {
		if f.SampleCold {
			return nil, fmt.Errorf("-sample-cold requires -sample")
		}
		return nil, nil
	}
	sc := machine.DefaultSampling()
	if f.Sample != "on" && f.Sample != "default" {
		parts := strings.Split(f.Sample, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("-sample: want 'on' or period:window:warmup[:phase], got %q", f.Sample)
		}
		fields := []*uint64{&sc.Period, &sc.Window, &sc.Warmup, &sc.Phase}
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("-sample: field %d of %q: %w", i+1, f.Sample, err)
			}
			*fields[i] = v
		}
	}
	sc.ColdState = f.SampleCold
	raw := []string{
		"sampling.enabled=true",
		fmt.Sprintf("sampling.period_instrs=%d", sc.Period),
		fmt.Sprintf("sampling.window_instrs=%d", sc.Window),
		fmt.Sprintf("sampling.warmup_instrs=%d", sc.Warmup),
		fmt.Sprintf("sampling.phase_instrs=%d", sc.Phase),
		fmt.Sprintf("sampling.cold_state=%t", sc.ColdState),
	}
	out := make([]param.Setting, 0, len(raw))
	for _, r := range raw {
		s, err := param.ParseSetting(r)
		if err != nil {
			return nil, fmt.Errorf("-sample: %w", err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("-sample: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
