package core

import (
	"fmt"

	"flashsim/internal/machine"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

// Curve is one speedup line of Figures 5–7: execution time at each
// processor count, normalized to the same platform's uniprocessor time.
type Curve struct {
	Label   string
	Procs   []int
	Exec    []sim.Ticks
	Speedup []float64
}

// At returns the speedup at processor count p (0 if absent).
func (c Curve) At(p int) float64 {
	for i, q := range c.Procs {
		if q == p {
			return c.Speedup[i]
		}
	}
	return 0
}

// Speedups produces the speedup curves of a trend study (§3.2:
// "architects rely on being able to predict the relative magnitude of
// performance changes across a variety of alternative designs"): the
// hardware's curve for w over procs first, then one predicted curve per
// simulator configuration. Each curve's processor sweep runs as one
// batch.
func (r *Reference) Speedups(w Workload, procs []int, sims ...machine.Config) ([]Curve, error) {
	curves := make([]Curve, 0, 1+len(sims))
	for ci := -1; ci < len(sims); ci++ {
		c, b := Curve{Label: "FLASH 150MHz", Procs: procs}, r.Batch()
		if ci >= 0 {
			c.Label = sims[ci].Name
		}
		for _, p := range procs {
			if ci < 0 {
				b.HW(w.Make(p), p)
				continue
			}
			cfg := sims[ci]
			cfg.Procs = p
			b.Sim(cfg, w.Make(p))
		}
		ms, err := b.Run()
		if err != nil {
			return nil, fmt.Errorf("%s %s sweep: %w", c.Label, w.Name, err)
		}
		for _, m := range ms {
			c.Exec = append(c.Exec, m.Mean)
			c.Speedup = append(c.Speedup, scaledSpeedup(ms[0].Mean, procs[0], m.Mean))
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// scaledSpeedup normalizes to the first measured point: if the curve
// starts at procs[0] = 1 this is the usual t1/tp; if the sweep starts
// higher (Figure 7 reports 8 and 16 processors) the speedup is scaled
// as procs[0] * t_first / t_p.
func scaledSpeedup(base sim.Ticks, baseProcs int, exec sim.Ticks) float64 {
	if exec == 0 {
		return 0
	}
	return float64(baseProcs) * float64(base) / float64(exec)
}

// TrendError summarizes how well a simulator curve tracks the hardware
// curve: the maximum and mean absolute relative error in predicted
// speedup across the sweep.
type TrendError struct {
	Label    string
	MaxErr   float64
	MeanErr  float64
	FinalErr float64 // at the largest processor count
}

// CompareTrend computes the trend error of sim against hw (curves must
// share proc points).
func CompareTrend(hw, simc Curve) TrendError {
	te := TrendError{Label: simc.Label}
	var sum float64
	n := 0
	for i := range hw.Procs {
		if i >= len(simc.Speedup) || hw.Speedup[i] == 0 {
			continue
		}
		e := stats.RelError(simc.Speedup[i], hw.Speedup[i])
		sum += e
		n++
		te.FinalErr = e
		te.MaxErr = max(te.MaxErr, e)
	}
	if n > 0 {
		te.MeanErr = sum / float64(n)
	}
	return te
}
