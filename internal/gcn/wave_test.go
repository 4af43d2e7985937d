package gcn

import (
	"errors"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

func mustSimWave(t *testing.T, k *kernel.Kernel, cfg hw.Config) Result {
	t.Helper()
	r, err := SimulateWave(k, cfg)
	if err != nil {
		t.Fatalf("SimulateWave(%s, %v): %v", k.Name, cfg, err)
	}
	return r
}

func TestWaveEngineMatchesRoundOnArchetypes(t *testing.T) {
	kernels := []*kernel.Kernel{
		smaller(computeBoundKernel(), 512),
		smaller(bandwidthBoundKernel(), 512),
		parallelismLimitedKernel(),
		smaller(cuIntolerantKernel(), 512),
		smaller(latencyBoundKernel(), 256),
	}
	for _, k := range kernels {
		for _, cfg := range []hw.Config{hw.Reference(), hw.Minimum()} {
			round := mustSim(t, k, cfg)
			wave := mustSimWave(t, k, cfg)
			ratio := wave.KernelNS / round.KernelNS
			if ratio < 0.6 || ratio > 1.8 {
				t.Errorf("%s@%v: wave/round = %.2f (wave %.0f ns, round %.0f ns)",
					k.Name, cfg, ratio, wave.KernelNS, round.KernelNS)
			}
		}
	}
}

func TestWaveEngineScalingDirections(t *testing.T) {
	// The event engine must reproduce the class-defining responses.
	comp := smaller(computeBoundKernel(), 512)
	base := mustSimWave(t, comp, cfgWith(22, 500, 1250))
	fast := mustSimWave(t, comp, cfgWith(22, 1000, 1250))
	if r := fast.Throughput / base.Throughput; r < 1.7 || r > 2.3 {
		t.Errorf("compute kernel 2x clock speedup = %.2f, want ~2", r)
	}
	moreCU := mustSimWave(t, comp, cfgWith(44, 500, 1250))
	if r := moreCU.Throughput / base.Throughput; r < 1.7 || r > 2.3 {
		t.Errorf("compute kernel 2x CU speedup = %.2f, want ~2", r)
	}

	bw := smaller(bandwidthBoundKernel(), 512)
	slow := mustSimWave(t, bw, cfgWith(44, 1000, 300))
	fastM := mustSimWave(t, bw, cfgWith(44, 1000, 1200))
	if r := fastM.Throughput / slow.Throughput; r < 2.8 || r > 4.5 {
		t.Errorf("bw kernel 4x mem speedup = %.2f, want ~4", r)
	}
}

func TestWaveEngineParallelismPlateau(t *testing.T) {
	k := parallelismLimitedKernel()
	at16 := mustSimWave(t, k, cfgWith(16, 1000, 1250))
	at44 := mustSimWave(t, k, cfgWith(44, 1000, 1250))
	if r := at44.Throughput / at16.Throughput; r > 1.1 {
		t.Errorf("16->44 CU speedup = %.2f, want plateau (16 workgroups)", r)
	}
}

func TestWaveEnginePureCompute(t *testing.T) {
	k := kernel.New("t", "t", "pure").
		Geometry(256, 256).
		Compute(10000, 100).
		Access(kernel.Streaming, 0, 0, 0).
		MLP(0).
		MustBuild()
	r := mustSimWave(t, k, hw.Reference())
	if r.Bound != BoundCompute {
		t.Errorf("pure compute bound = %v", r.Bound)
	}
	if r.AchievedGBs != 0 {
		t.Errorf("pure compute moved %g GB/s", r.AchievedGBs)
	}
}

func TestWaveEngineDeterministic(t *testing.T) {
	k := smaller(bandwidthBoundKernel(), 200)
	a := mustSimWave(t, k, cfgWith(20, 700, 700))
	b := mustSimWave(t, k, cfgWith(20, 700, 700))
	if a.KernelNS != b.KernelNS {
		t.Fatalf("non-deterministic: %g vs %g", a.KernelNS, b.KernelNS)
	}
}

func TestWaveEngineErrors(t *testing.T) {
	bad := computeBoundKernel()
	bad.VALUPerWave = 0
	if _, err := SimulateWave(bad, hw.Reference()); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := SimulateWave(computeBoundKernel(), hw.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	huge := computeBoundKernel()
	huge.SGPRsPerWave = 512
	huge.WGSize = 1024
	if _, err := SimulateWave(huge, hw.Reference()); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("SimulateWave = %v, want ErrDoesNotFit", err)
	}
}

func TestWaveEngineInvariants(t *testing.T) {
	for _, k := range []*kernel.Kernel{
		smaller(computeBoundKernel(), 128),
		smaller(bandwidthBoundKernel(), 128),
		launchBoundKernel(),
	} {
		r := mustSimWave(t, k, hw.Reference())
		if r.TimeNS <= 0 || r.KernelNS > r.TimeNS || r.Throughput <= 0 {
			t.Fatalf("%s: bad result %+v", k.Name, r)
		}
		if r.BoundShare < 0 || r.BoundShare > 1 {
			t.Fatalf("%s: BoundShare = %g", k.Name, r.BoundShare)
		}
	}
}

func TestWaveEngineTailEffect(t *testing.T) {
	// One straggler workgroup beyond full residency must extend the
	// makespan by less than one full workgroup round.
	k44 := smaller(computeBoundKernel(), 44)
	k45 := smaller(computeBoundKernel(), 45)
	t44 := mustSimWave(t, k44, cfgWith(44, 1000, 1250)).KernelNS
	t45 := mustSimWave(t, k45, cfgWith(44, 1000, 1250)).KernelNS
	if t45 < t44 {
		t.Fatalf("45 WGs faster than 44: %g < %g", t45, t44)
	}
	if t45 > 2.2*t44 {
		t.Fatalf("tail workgroup more than doubled time: %g vs %g", t45, t44)
	}
}

// TestWaveBudgetOverrunIsErrBudget: a launch with more waves than the
// event cap fails up front with an error wrapping ErrBudget.
func TestWaveBudgetOverrunIsErrBudget(t *testing.T) {
	huge := kernel.New("s", "p", "huge").Geometry(maxWaveEvents/4+1, 256).MustBuild()
	_, err := SimulateWave(huge, hw.Reference())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized launch returned %v, want ErrBudget", err)
	}
}
