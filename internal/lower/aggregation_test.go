package lower_test

import (
	"testing"

	"repro/internal/ansor"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// TestAggregationEventsPerInstr pins how well the executor aggregates: the
// protocol events per simulated instruction on fixed inputs — the default
// schedule of conv small/1 on RISC-V, and per architecture the 16-sketch
// ansor.RandomSketches mix of conv small/3 (seed 1) that
// BenchmarkSimulatorMix runs. Bit-identity cannot see a walker that
// silently ships more, smaller boxes; this gate can. The event ceilings are
// the counts measured before the single box walker replaced the
// hand-specialised aggregation paths. Lower them when aggregation improves;
// never raise them.
func TestAggregationEventsPerInstr(t *testing.T) {
	gate := func(t *testing.T, arch isa.Arch, scheds []*schedule.Schedule, wantInstr, maxEvents uint64) {
		t.Helper()
		var instr, events uint64
		for _, s := range scheds {
			prog, err := lower.Build(s, isa.Lookup(arch))
			if err != nil {
				continue // rejected by the code generator, as tuners see it
			}
			st, err := sim.Run(prog, hw.Lookup(arch).Caches)
			if err != nil {
				t.Fatal(err)
			}
			instr += st.Total
			events += st.SinkEvents
		}
		t.Logf("%s: %d instructions, %d events, %.6f events/instr (ceiling %.6f)",
			arch, instr, events, float64(events)/float64(instr), float64(maxEvents)/float64(wantInstr))
		if instr != wantInstr {
			t.Fatalf("%s: %d instructions, want %d: the inputs changed", arch, instr, wantInstr)
		}
		if events > maxEvents {
			t.Errorf("%s: %d events exceed the ceiling %d (%.6f > %.6f events/instr)",
				arch, events, maxEvents, float64(events)/float64(instr), float64(maxEvents)/float64(instr))
		}
	}
	t.Run("default-conv-small1", func(t *testing.T) {
		wl := te.ConvGroup(te.ScaleSmall, 1)
		gate(t, isa.RISCV, []*schedule.Schedule{schedule.New(wl.Op)}, 3585626, 58528)
	})
	mix := []struct {
		arch             isa.Arch
		instr, maxEvents uint64
	}{
		{isa.X86, 33902864, 11955385},
		{isa.ARM, 32737036, 11020776},
		{isa.RISCV, 35642721, 10471123},
	}
	for _, m := range mix {
		t.Run("sketch-mix-"+string(m.arch), func(t *testing.T) {
			scheds, err := ansor.RandomSketches(func() *te.Workload {
				return te.ConvGroup(te.ScaleSmall, 3)
			}, 16, num.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			gate(t, m.arch, scheds, m.instr, m.maxEvents)
		})
	}
}
