package lower_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// fuzzSchedule decodes fuzz bytes into a tiny-scale Table II conv group and
// a schedule over it. The first byte picks the group and the architecture;
// each following pair of bytes is one step: split, reorder, unroll or
// vectorize, with the step's operands drawn from the next bytes. Steps the
// schedule rejects are skipped, so every input decodes to a valid schedule.
func fuzzSchedule(data []byte) (func() *te.Workload, isa.Arch, []schedule.Step) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	head := next()
	group := head % te.NumConvGroups
	arch := isa.Archs()[(head/te.NumConvGroups)%len(isa.Archs())]
	wl := func() *te.Workload { return te.ConvGroup(te.ScaleTiny, group) }
	s := schedule.New(wl().Op)
	for n := 0; len(data) > 0 && n < 12; n++ {
		op, arg := next(), next()
		leaf := s.Leaves[arg%len(s.Leaves)]
		switch op % 4 {
		case 0:
			if leaf.Extent >= 2 {
				_, _, _ = s.Split(leaf, 1+next()%leaf.Extent)
			}
		case 1:
			// Fisher–Yates over the leaves, one byte per swap.
			order := append([]*schedule.IterVar(nil), s.Leaves...)
			for i := len(order) - 1; i > 0; i-- {
				j := next() % (i + 1)
				order[i], order[j] = order[j], order[i]
			}
			_ = s.Reorder(order)
		case 2:
			if leaf.Ann == schedule.AnnNone {
				_ = s.Unroll(leaf)
			}
		default:
			last := s.Leaves[len(s.Leaves)-1]
			if last.Kind() == te.Spatial && last.Ann == schedule.AnnNone {
				_ = s.Vectorize(last)
			}
		}
	}
	return wl, arch, s.Steps
}

// FuzzExecutorBitIdentical checks, over the schedule space, that the
// block-aggregated executor is an encoding change only: Execute and
// ExecutePerInstruction give equal simulator statistics and equal
// timing-model cycles and mispredicts, on the Table I hierarchy of the
// architecture and on an 8-set 1-way L1D. It also checks that the timing
// model is the simulator plus an overlay: its Stats equal a plain
// sim.Machine's for the same program. The seed corpus under testdata/fuzz
// replays as part of the normal test run.
func FuzzExecutorBitIdentical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, arch, steps := fuzzSchedule(data)
		build := func() *lower.Program {
			s, err := schedule.Replay(wl().Op, steps)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			prog, err := lower.Build(s, isa.Lookup(arch))
			if err != nil {
				return nil
			}
			return prog
		}
		if build() == nil {
			return // rejected by the code generator, as tuners see it
		}
		prof := hw.Lookup(arch)
		for _, caches := range []cache.HierarchyConfig{prof.Caches, tinyL1D} {
			p := prof
			p.Caches = caches
			run := func(exec func(*lower.Program, lower.Sink, bool)) (*sim.Stats, *hw.Machine) {
				hwM, err := hw.NewMachine(p)
				if err != nil {
					t.Fatal(err)
				}
				exec(build(), hwM, false)
				if err := hwM.CheckInvariants(); err != nil {
					t.Fatalf("cache invariants: %v", err)
				}
				st := hwM.Stats()
				st.SinkEvents = 0
				return st, hwM
			}
			ref, refHW := run(lower.ExecutePerInstruction)
			agg, aggHW := run(lower.Execute)
			if !reflect.DeepEqual(ref, agg) {
				t.Fatalf("%s %v (L1D %d B): sim stats differ:\nper-instr: %+v\naggregated: %+v",
					arch, steps, caches.L1D.SizeBytes, ref, agg)
			}
			if refHW.Cycles() != aggHW.Cycles() || refHW.Mispredicts() != aggHW.Mispredicts() {
				t.Fatalf("%s %v (L1D %d B): hw cycles/mispredicts differ", arch, steps, caches.L1D.SizeBytes)
			}
			simM, err := sim.New(arch, caches)
			if err != nil {
				t.Fatal(err)
			}
			lower.Execute(build(), simM, false)
			if st := aggHW.Stats(); !reflect.DeepEqual(st, simM.Stats()) {
				t.Fatalf("%s %v (L1D %d B): timing-model stats differ from the simulator's:\nhw:  %+v\nsim: %+v",
					arch, steps, caches.L1D.SizeBytes, st, simM.Stats())
			}
		}
	})
}
