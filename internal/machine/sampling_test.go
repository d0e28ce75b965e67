package machine_test

import (
	"bytes"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/trace"
)

// sampledConfig returns the replay test machine with the default
// sampling schedule switched on.
func sampledConfig(procs int) machine.Config {
	cfg := replayConfig(procs)
	cfg.Name = "test-sampled"
	cfg.Sampling = machine.DefaultSampling()
	return cfg
}

func sampleFFT(procs int) emitter.Program {
	return apps.FFT(apps.FFTOpts{LogN: 10, Procs: procs, TLBBlocked: true, Prefetch: true})
}

func TestScheduleSegmentAt(t *testing.T) {
	s := machine.Schedule{Phase: 100, Period: 1000, Window: 200}
	cases := []struct {
		n        uint64
		detailed bool
		left     uint64
	}{
		{0, false, 100},    // phase prefix
		{99, false, 1},     // last phase instruction
		{100, true, 200},   // first window of period 0
		{299, true, 1},     // last window instruction
		{300, false, 800},  // functional gap
		{1099, false, 1},   // end of period 0
		{1100, true, 200},  // period 1 window
		{2400, false, 700}, // period 2 gap, mid-way
	}
	for _, c := range cases {
		d, left := s.SegmentAt(c.n)
		if d != c.detailed || left != c.left {
			t.Errorf("SegmentAt(%d) = (%v, %d), want (%v, %d)", c.n, d, left, c.detailed, c.left)
		}
	}
	if d, _ := (machine.Schedule{}).SegmentAt(12345); !d {
		t.Error("zero schedule should be all-detailed")
	}
}

func TestSamplingConfigValidation(t *testing.T) {
	bad := []machine.SamplingConfig{
		{Enabled: true},                                      // period 0
		{Enabled: true, Period: 100},                         // window 0
		{Enabled: true, Period: 100, Window: 200},            // window > period
		{Enabled: true, Period: 100, Window: 50, Warmup: 60}, // warmup > window
	}
	for i, sc := range bad {
		cfg := sampledConfig(1)
		cfg.Sampling = sc
		if _, err := machine.Run(cfg, sampleFFT(1)); err == nil {
			t.Errorf("case %d: invalid sampling config %+v accepted", i, sc)
		}
	}
}

// TestSampledRunAccounting pins the sampled mode's basic contract: the
// run completes, reports itself sampled, partitions the committed
// instruction count exactly between detailed and functional fidelity,
// warms state by default, and — because the functional model's flat
// one-cycle CPI is optimistic — never reports more time than the
// full-detail run it approximates.
func TestSampledRunAccounting(t *testing.T) {
	const procs = 2
	prog := sampleFFT(procs)
	full, err := machine.Run(replayConfig(procs), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(sampledConfig(procs), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampled {
		t.Fatal("sampled run did not report Sampled")
	}
	s := res.Sampling
	if s.Windows == 0 {
		t.Fatal("no detailed windows opened")
	}
	if s.DetailedInstrs+s.FunctionalInstrs != res.Instructions {
		t.Fatalf("fidelity partition %d+%d != committed %d",
			s.DetailedInstrs, s.FunctionalInstrs, res.Instructions)
	}
	if s.FunctionalInstrs == 0 {
		t.Fatal("nothing fast-forwarded; schedule never left the window")
	}
	if s.WarmupInstrs > s.DetailedInstrs {
		t.Fatalf("warmup %d exceeds detailed %d", s.WarmupInstrs, s.DetailedInstrs)
	}
	if s.WarmTouches == 0 {
		t.Fatal("warm-state policy made no state touches")
	}
	if res.Instructions != full.Instructions {
		t.Fatalf("sampling changed the committed instruction count: %d != %d",
			res.Instructions, full.Instructions)
	}
	if res.Exec == 0 || res.Exec > full.Exec {
		t.Fatalf("sampled exec %d outside (0, full %d]", res.Exec, full.Exec)
	}
}

// TestSampledRunDeterministic pins bit-identical repeatability: the
// sampled engine introduces no scheduling or allocation nondeterminism.
func TestSampledRunDeterministic(t *testing.T) {
	const procs = 2
	first, err := machine.Run(sampledConfig(procs), sampleFFT(procs))
	if err != nil {
		t.Fatal(err)
	}
	second, err := machine.Run(sampledConfig(procs), sampleFFT(procs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("sampled runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestColdSamplingTouchesNothing pins the cold-warmup variant: no
// cache, TLB, or directory state is touched during fast-forward.
func TestColdSamplingTouchesNothing(t *testing.T) {
	cfg := sampledConfig(2)
	cfg.Sampling.ColdState = true
	res, err := machine.Run(cfg, sampleFFT(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling.WarmTouches != 0 {
		t.Fatalf("cold-state run made %d warm touches", res.Sampling.WarmTouches)
	}
	if res.Sampling.FunctionalInstrs == 0 {
		t.Fatal("nothing fast-forwarded")
	}
}

// TestSampledReplay pins that a replay image doubles as the
// fast-forward stream: sampling a trace-driven run works, reports its
// accounting, and is deterministic.
func TestSampledReplay(t *testing.T) {
	const procs = 2
	cfg := replayConfig(procs)
	prog := sampleFFT(procs)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: procs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	scfg := sampledConfig(procs)
	first, err := machine.RunReplay(scfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Sampled || first.Sampling.Windows == 0 {
		t.Fatalf("sampled replay reported no sampling: %+v", first.Sampling)
	}
	second, err := machine.RunReplay(scfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("sampled replay nondeterministic across image reuse")
	}
	// The full-detail replay of the same image is the error baseline.
	fullReplay, err := machine.RunReplay(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if first.Instructions != fullReplay.Instructions {
		t.Fatalf("sampled replay committed %d instructions, full replay %d",
			first.Instructions, fullReplay.Instructions)
	}
}

// TestBackToBackWindows pins the Window == Period edge: a schedule
// with no functional gap runs every instruction detailed and must
// reproduce the unsampled machine's timing and memory behavior
// exactly, differing only in the sampling metadata.
func TestBackToBackWindows(t *testing.T) {
	const procs = 2
	prog := sampleFFT(procs)
	full, err := machine.Run(replayConfig(procs), prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampledConfig(procs)
	cfg.Sampling.Period = 1000
	cfg.Sampling.Window = 1000
	cfg.Sampling.Warmup = 0
	res, err := machine.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling.FunctionalInstrs != 0 {
		t.Fatalf("back-to-back windows fast-forwarded %d instructions", res.Sampling.FunctionalInstrs)
	}
	if res.Exec != full.Exec || res.Total != full.Total ||
		res.Instructions != full.Instructions || res.Metrics.L1 != full.Metrics.L1 ||
		res.Metrics.L2 != full.Metrics.L2 || res.TLBMisses != full.TLBMisses {
		t.Fatalf("all-detailed schedule diverged from unsampled run:\nfull:    %v\nsampled: %v", full, res)
	}
}

// TestSamplingPhase pins the phase offset: a nonzero phase begins the
// run functionally, so the first window opens later in the stream.
func TestSamplingPhase(t *testing.T) {
	cfg := sampledConfig(2)
	cfg.Sampling.Phase = 5000
	res, err := machine.Run(cfg, sampleFFT(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampled || res.Sampling.FunctionalInstrs < 2*5000 {
		t.Fatalf("phase prefix not fast-forwarded: %+v", res.Sampling)
	}
}

// plainStream hides any bulk-skip capability of the wrapped stream, so
// the sampling engine must expand collapsed compute runs one Next call
// at a time.
type plainStream struct{ s cpu.Stream }

func (p plainStream) Next() (isa.Instr, bool) { return p.s.Next() }

// noSkipDriver is a replay driver whose streams refuse bulk skipping.
type noSkipDriver struct{ machine.Driver }

func (d noSkipDriver) Stream(i int) cpu.Stream { return plainStream{d.Driver.Stream(i)} }

// TestSampledReplaySkipEquivalence pins that the O(1) compute-run skip
// in sampled replay is purely an optimization: fast-forwarding a
// replay image with bulk skip produces bit-identical results to
// expanding every collapsed filler through Next.
func TestSampledReplaySkipEquivalence(t *testing.T) {
	const procs = 2
	cfg := replayConfig(procs)
	prog := sampleFFT(procs)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: procs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	scfg := sampledConfig(procs)
	skipped, err := machine.RunReplay(scfg, img)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := machine.RunWith(scfg, noSkipDriver{machine.NewReplayDriver(scfg, img)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skipped, expanded) {
		t.Fatalf("bulk skip changed the sampled replay result:\nskipped:  %+v\nexpanded: %+v", skipped, expanded)
	}
}
