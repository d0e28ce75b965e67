package machine_test

import (
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/emitter"
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

// sampleImage captures sampleFFT on the plain replay machine and
// returns the prepared image, the only input sampling runs on.
func sampleImage(t *testing.T, procs int) *machine.ReplayImage {
	t.Helper()
	_, data := captureInto(t, replayConfig(procs), sampleFFT(procs))
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// replayOf runs img on cfg and fails the test on an error.
func replayOf(t *testing.T, cfg machine.Config, img *machine.ReplayImage) machine.Result {
	t.Helper()
	res, err := machine.RunReplay(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSamplingConfigValidation(t *testing.T) {
	img := sampleImage(t, 1)
	bad := []machine.SamplingConfig{
		{Enabled: true},                                      // period 0
		{Enabled: true, Period: 100},                         // window 0
		{Enabled: true, Period: 100, Window: 200},            // window > period
		{Enabled: true, Period: 100, Window: 50, Warmup: 60}, // warmup > window
	}
	for i, sc := range bad {
		cfg := sampledConfig(1)
		cfg.Sampling = sc
		if _, err := machine.RunReplay(cfg, img); err == nil {
			t.Errorf("case %d: invalid sampling config %+v accepted", i, sc)
		}
	}
}

// TestExecutionRunsRefuseSampling: sampling runs only on trace replay,
// so every execution-driven entry point refuses an enabled schedule
// instead of running the program unsampled. A refused member of a
// shared emission fails alone (runner's TestSampledMemberFailsAlone
// holds the others to their solo runs).
func TestExecutionRunsRefuseSampling(t *testing.T) {
	const procs = 2
	prog := sampleFFT(procs)
	refused := func(entry string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "sampling runs only on trace replay") {
			t.Errorf("%s of a sampled config: err %v, want the refusal", entry, err)
		}
	}
	_, err := machine.Run(sampledConfig(procs), prog)
	refused("Run", err)
	tw, err := trace.NewWriter(new(strings.Builder), trace.Meta{Workload: prog.FullName(), Threads: procs})
	if err != nil {
		t.Fatal(err)
	}
	_, err = machine.RunCapture(sampledConfig(procs), prog, tw)
	refused("RunCapture", err)

	errs := make([]error, 2)
	machine.RunShared([]machine.Config{replayConfig(procs), sampledConfig(procs)}, prog,
		func(k int, run func() (machine.Result, error)) { _, errs[k] = run() })
	refused("RunShared member 1", errs[1])
	if errs[0] != nil {
		t.Errorf("the unsampled member beside a refused one failed: %v", errs[0])
	}
}

// TestSampledRunAccounting pins the sampled mode's basic contract: the
// run completes, reports itself sampled, partitions the committed
// instruction count exactly between detailed and functional fidelity,
// warms state by default, and — because the functional model's flat
// one-cycle CPI is optimistic — never reports more time than the
// full-detail replay it approximates.
func TestSampledRunAccounting(t *testing.T) {
	const procs = 2
	img := sampleImage(t, procs)
	full := replayOf(t, replayConfig(procs), img)
	res := replayOf(t, sampledConfig(procs), img)
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

// TestSampledRunDeterministic pins bit-identical repeatability: two
// captures of one program, each prepared and replayed sampled, give
// one Result; the sampled engine introduces no scheduling or
// allocation nondeterminism.
func TestSampledRunDeterministic(t *testing.T) {
	const procs = 2
	first := replayOf(t, sampledConfig(procs), sampleImage(t, procs))
	second := replayOf(t, sampledConfig(procs), sampleImage(t, procs))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("sampled runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestColdSamplingTouchesNothing pins the cold-warmup variant: no
// cache, TLB, or directory state is touched during fast-forward.
func TestColdSamplingTouchesNothing(t *testing.T) {
	cfg := sampledConfig(2)
	cfg.Sampling.ColdState = true
	res := replayOf(t, cfg, sampleImage(t, 2))
	if res.Sampling.WarmTouches != 0 {
		t.Fatalf("cold-state run made %d warm touches", res.Sampling.WarmTouches)
	}
	if res.Sampling.FunctionalInstrs == 0 {
		t.Fatal("nothing fast-forwarded")
	}
}

// TestSampledReplay pins that one image serves any number of sampled
// replays: reusing it gives the same Result, and the sampled replay
// commits what the full-detail replay of it does.
func TestSampledReplay(t *testing.T) {
	const procs = 2
	img := sampleImage(t, procs)
	scfg := sampledConfig(procs)
	first := replayOf(t, scfg, img)
	if !first.Sampled || first.Sampling.Windows == 0 {
		t.Fatalf("sampled replay reported no sampling: %+v", first.Sampling)
	}
	if second := replayOf(t, scfg, img); !reflect.DeepEqual(first, second) {
		t.Fatal("sampled replay nondeterministic across image reuse")
	}
	// The full-detail replay of the same image is the error baseline.
	if full := replayOf(t, replayConfig(procs), img); first.Instructions != full.Instructions {
		t.Fatalf("sampled replay committed %d instructions, full replay %d",
			first.Instructions, full.Instructions)
	}
}

// TestBackToBackWindows pins the Window == Period edge: a schedule
// with no functional gap runs every instruction detailed and must
// reproduce the unsampled replay exactly, differing only in the
// sampling metadata.
func TestBackToBackWindows(t *testing.T) {
	const procs = 2
	img := sampleImage(t, procs)
	full := replayOf(t, replayConfig(procs), img)
	cfg := replayConfig(procs)
	cfg.Sampling = machine.SamplingConfig{Enabled: true, Period: 1000, Window: 1000}
	res := replayOf(t, cfg, img)
	if !res.Sampled || res.Sampling.FunctionalInstrs != 0 {
		t.Fatalf("back-to-back windows: sampled %v, fast-forwarded %d instructions",
			res.Sampled, res.Sampling.FunctionalInstrs)
	}
	res.Sampled, res.Sampling = false, machine.SamplingStats{}
	if !reflect.DeepEqual(res, full) {
		t.Fatalf("all-detailed schedule diverged from unsampled replay:\nfull:    %+v\nsampled: %+v", full, res)
	}
}

// TestSamplingPhase pins the phase offset: a nonzero phase begins the
// run functionally, so the first window opens later in the stream.
func TestSamplingPhase(t *testing.T) {
	cfg := sampledConfig(2)
	cfg.Sampling.Phase = 5000
	res := replayOf(t, cfg, sampleImage(t, 2))
	if !res.Sampled || res.Sampling.FunctionalInstrs < 2*5000 {
		t.Fatalf("phase prefix not fast-forwarded: %+v", res.Sampling)
	}
}

// TestSampledReplaySkipEquivalence pins that consuming a collapsed
// compute run in one step is purely an optimization: with every run
// stepped one instruction at a time (SetRunStep(1)), the plain replay
// and the warm and sparse-cold sampled replays are bit-identical to
// their bulk runs. The fast-forward must still charge each instruction
// of a run its own slot of the slice, or its yields move.
func TestSampledReplaySkipEquivalence(t *testing.T) {
	const procs = 2
	img := sampleImage(t, procs)
	cold := sampledConfig(procs)
	cold.Sampling.Period, cold.Sampling.ColdState = 100_000, true
	for _, c := range []struct {
		name string
		cfg  machine.Config
	}{{"plain", replayConfig(procs)}, {"warm", sampledConfig(procs)}, {"sparse-cold", cold}} {
		bulk := replayOf(t, c.cfg, img)
		restore := machine.SetRunStep(1)
		stepped := replayOf(t, c.cfg, img)
		restore()
		if !reflect.DeepEqual(bulk, stepped) {
			t.Errorf("%s: bulk runs changed the replay result: exec %d vs %d stepped, queue %+v vs %+v",
				c.name, bulk.Exec, stepped.Exec, bulk.Metrics.Queue, stepped.Metrics.Queue)
		}
	}
}
