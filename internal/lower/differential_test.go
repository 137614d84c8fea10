package lower_test

// Differential test of the block-aggregated event encoding: Execute (run
// events + bulk counts) must produce bit-identical simulator statistics and
// timing-model cycles to ExecutePerInstruction (one event per executed
// instruction) — the aggregation is an encoding change, not a model change.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ansor"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// diffCase builds one workload+schedule pair; a fresh workload per build
// keeps tensor placement independent across encodings.
type diffCase struct {
	name  string
	build func(t *testing.T) (*te.Workload, *schedule.Schedule)
}

func diffCases() []diffCase {
	return []diffCase{
		{"matmul-default", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(12, 9, 11)
			return wl, schedule.New(wl.Op)
		}},
		{"matmul-tiled-vectorized", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(16, 12, 16)
			s := schedule.New(wl.Op)
			i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
			_, ii, _ := s.Split(i, 4)
			jo, ji, _ := s.Split(j, 8)
			ko, ki, _ := s.Split(k, 3)
			if err := s.Reorder([]*schedule.IterVar{s.Leaves[0], jo, ko, ii, ki, ji}); err != nil {
				t.Fatal(err)
			}
			_ = s.Vectorize(ji)
			return wl, s
		}},
		{"matmul-unrolled", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(8, 6, 8)
			s := schedule.New(wl.Op)
			_, ki, _ := s.Split(s.Leaves[2], 3)
			_ = s.Unroll(ki)
			return wl, s
		}},
		{"matmul-split-tail", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// 10 split by 3 and 7 split by 4 both leave guarded tails.
			wl := te.MatMul(10, 7, 9)
			s := schedule.New(wl.Op)
			_, _, _ = s.Split(s.Leaves[0], 3)
			_, _, _ = s.Split(s.Leaves[2], 4)
			return wl, s
		}},
		{"matmul-spilled", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.MatMul(16, 8, 16)
			s := schedule.New(wl.Op)
			i, j, k := s.Leaves[0], s.Leaves[1], s.Leaves[2]
			if err := s.Reorder([]*schedule.IterVar{k, i, j}); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
		{"conv-padded-default", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.ConvGroup(te.ScaleTiny, 1) // stride 1, pad 1
			return wl, schedule.New(wl.Op)
		}},
		{"conv-padded-vectorized", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			wl := te.ConvGroup(te.ScaleTiny, 1)
			s := schedule.New(wl.Op)
			leaves := s.Leaves
			ow := leaves[3]
			order := []*schedule.IterVar{leaves[0], leaves[1], leaves[2], leaves[4], leaves[5], leaves[6], ow}
			if err := s.Reorder(order); err != nil {
				t.Fatal(err)
			}
			_ = s.Vectorize(ow)
			return wl, s
		}},
		{"matmul-reduce-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// k split twice gives a 3-deep all-reduce tail (ko, ki, kii):
			// boxes spanning three reduce levels, including guarded split
			// tails (10 % 4 != 0).
			wl := te.MatMul(9, 7, 10)
			s := schedule.New(wl.Op)
			_, ki, err := s.Split(s.Leaves[2], 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Split(ki, 2); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
		{"conv-strided-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// Stride-2 padded conv: boundary rows clip kh/kw asymmetrically,
			// so boxes at every depth and per-iteration fallbacks for mixed
			// pieces all fire within one execution.
			wl := te.ConvGroup(te.ScaleTiny, 2)
			return wl, schedule.New(wl.Op)
		}},
		{"dense-split-reduce-3deep", func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			// DenseBiasRelu with the reduction split: reduce levels carry a
			// guard on the split tail while spatial guards sit above.
			wl := te.DenseBiasRelu(3, 17, 5)
			s := schedule.New(wl.Op)
			if _, _, err := s.Split(s.Leaves[2], 5); err != nil {
				t.Fatal(err)
			}
			return wl, s
		}},
	}
}

// sketchCases draws tuner-shaped schedules as differential cases:
// ansor.RandomSketches of every tiny conv group, a matmul and a dense layer.
// They build the deep nests of extent-1 levels, unrolled levels and hoisted
// parents that a tuner sends and that neither the hand-built cases nor
// randomScheduleSteps reach. Sketches the code generator rejects are
// dropped, as a tuner drops failed builds.
func sketchCases(t *testing.T) []diffCase {
	t.Helper()
	type source struct {
		name string
		wl   func() *te.Workload
	}
	var sources []source
	for g := 0; g < te.NumConvGroups; g++ {
		g := g
		sources = append(sources, source{fmt.Sprintf("conv%d", g), func() *te.Workload { return te.ConvGroup(te.ScaleTiny, g) }})
	}
	sources = append(sources,
		source{"matmul", func() *te.Workload { return te.MatMul(12, 9, 11) }},
		source{"dense", func() *te.Workload { return te.DenseBiasRelu(3, 17, 5) }})
	var out []diffCase
	for si, src := range sources {
		scheds, err := ansor.RandomSketches(src.wl, 4, num.NewRNG(uint64(500+si)))
		if err != nil {
			t.Fatal(err)
		}
	sketch:
		for i, s := range scheds {
			for _, arch := range isa.Archs() {
				if _, err := lower.Build(s, isa.Lookup(arch)); err != nil {
					continue sketch
				}
			}
			steps, wl := s.Steps, src.wl
			out = append(out, diffCase{fmt.Sprintf("sketch-%s-%d", src.name, i), func(t *testing.T) (*te.Workload, *schedule.Schedule) {
				w := wl()
				s, err := schedule.Replay(w.Op, steps)
				if err != nil {
					t.Fatal(err)
				}
				return w, s
			}})
		}
	}
	return out
}

// tinyL1D is an 8-set 1-way L1D: working sets overflow it constantly, so
// resident-span fast paths reject and the scalar replay evicts mid-span.
var tinyL1D = cache.HierarchyConfig{
	L1D: cache.Config{Name: "L1D", SizeBytes: 8 * 64, LineBytes: 64, Assoc: 1},
	L1I: cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Assoc: 2},
	L2:  cache.Config{Name: "L2", SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 2},
}

// TestBlockAggregationTinyCacheBitIdentical re-runs every differential case
// against a deliberately tiny L1D (8 sets × 1 way): working sets overflow
// sets constantly, so the resident fast path rejects most spans
// mid-execution and the scalar replay evicts — the mixed fast/slow
// interleaving must still be bit-identical to the per-instruction stream.
func TestBlockAggregationTinyCacheBitIdentical(t *testing.T) {
	tiny := tinyL1D
	runOne := func(t *testing.T, tc diffCase, exec func(*lower.Program, lower.Sink, bool)) *sim.Stats {
		_, s := tc.build(t)
		prog, err := lower.Build(s, isa.Lookup(isa.RISCV))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		m, err := sim.New(isa.RISCV, tiny)
		if err != nil {
			t.Fatal(err)
		}
		exec(prog, m, false)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cache invariants: %v", err)
		}
		return m.Stats()
	}
	for _, tc := range append(diffCases(), sketchCases(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			ref := runOne(t, tc, lower.ExecutePerInstruction)
			agg := runOne(t, tc, lower.Execute)
			ref.SimWallSeconds, agg.SimWallSeconds = 0, 0
			ref.SinkEvents, agg.SinkEvents = 0, 0
			if !reflect.DeepEqual(ref, agg) {
				t.Errorf("sim stats differ:\nper-instr: %+v\naggregated: %+v", ref, agg)
			}
		})
	}
}

// runBoth executes one case under one encoding on a fresh timing model and
// returns its simulator statistics and the machine (for cycles).
func runBoth(t *testing.T, tc diffCase, arch isa.Arch, compute bool,
	exec func(*lower.Program, lower.Sink, bool)) (*sim.Stats, *hw.Machine) {
	t.Helper()
	_, s := tc.build(t)
	prog, err := lower.Build(s, isa.Lookup(arch))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	hwM, err := hw.NewMachine(hw.Lookup(arch))
	if err != nil {
		t.Fatal(err)
	}
	exec(prog, hwM, compute)
	if err := hwM.CheckInvariants(); err != nil {
		t.Fatalf("cache invariants: %v", err)
	}
	return hwM.Stats(), hwM
}

// TestBlockAggregationRandomSchedules fuzzes the same bit-identity property
// over random split/reorder/annotation mixes and the tuner-shaped sketch
// cases: the walker's choices (which levels box, where pieces are cut,
// which levels and pieces run per iteration) depend on schedule shape, so
// these exercise combinations the hand-picked cases miss.
func TestBlockAggregationRandomSchedules(t *testing.T) {
	rng := num.NewRNG(404)
	for trial := 0; trial < 60; trial++ {
		var wl func() *te.Workload
		switch trial % 3 {
		case 0:
			m, n, k := 5+rng.Intn(12), 3+rng.Intn(10), 5+rng.Intn(12)
			wl = func() *te.Workload { return te.MatMul(m, n, k) }
		case 1:
			g := rng.Intn(te.NumConvGroups)
			wl = func() *te.Workload { return te.ConvGroup(te.ScaleTiny, g) }
		default:
			b, in, out := 1+rng.Intn(4), 4+rng.Intn(12), 4+rng.Intn(12)
			wl = func() *te.Workload { return te.DenseBiasRelu(b, in, out) }
		}
		steps := randomScheduleSteps(rng, wl())
		arch := isa.Archs()[trial%3]
		tc := diffCase{name: "random", build: func(t *testing.T) (*te.Workload, *schedule.Schedule) {
			w := wl()
			s := schedule.New(w.Op)
			steps(s)
			return w, s
		}}
		refStats, refHW := runBoth(t, tc, arch, false, lower.ExecutePerInstruction)
		aggStats, aggHW := runBoth(t, tc, arch, false, lower.Execute)
		refStats.SimWallSeconds, aggStats.SimWallSeconds = 0, 0
		refStats.SinkEvents, aggStats.SinkEvents = 0, 0
		if !reflect.DeepEqual(refStats, aggStats) {
			t.Fatalf("trial %d (%s): sim stats differ:\nper-instr: %+v\naggregated: %+v",
				trial, arch, refStats, aggStats)
		}
		if refHW.Cycles() != aggHW.Cycles() || refHW.Mispredicts() != aggHW.Mispredicts() {
			t.Fatalf("trial %d (%s): hw cycles/mispredicts differ", trial, arch)
		}
	}
	for i, tc := range sketchCases(t) {
		arch := isa.Archs()[i%3]
		refStats, refHW := runBoth(t, tc, arch, false, lower.ExecutePerInstruction)
		aggStats, aggHW := runBoth(t, tc, arch, false, lower.Execute)
		refStats.SimWallSeconds, aggStats.SimWallSeconds = 0, 0
		refStats.SinkEvents, aggStats.SinkEvents = 0, 0
		if !reflect.DeepEqual(refStats, aggStats) {
			t.Fatalf("%s (%s): sim stats differ:\nper-instr: %+v\naggregated: %+v",
				tc.name, arch, refStats, aggStats)
		}
		if refHW.Cycles() != aggHW.Cycles() || refHW.Mispredicts() != aggHW.Mispredicts() {
			t.Fatalf("%s (%s): hw cycles/mispredicts differ", tc.name, arch)
		}
	}
}

// randomScheduleSteps draws a random schedule transformation once and
// returns a closure replaying it on a fresh schedule (both encodings must
// build the identical schedule).
func randomScheduleSteps(rng *num.RNG, wl *te.Workload) func(*schedule.Schedule) {
	type splitStep struct{ leaf, factor int }
	var splits []splitStep
	probe := schedule.New(wl.Op)
	nSplits := rng.Intn(3)
	for i := 0; i < nSplits; i++ {
		li := rng.Intn(len(probe.Leaves))
		leaf := probe.Leaves[li]
		if leaf.Extent < 2 {
			continue
		}
		factor := 1 + rng.Intn(leaf.Extent)
		if _, _, err := probe.Split(leaf, factor); err == nil {
			splits = append(splits, splitStep{li, factor})
		}
	}
	perm := rng.Perm(len(probe.Leaves))
	unrollIdx := -1
	if rng.Float64() < 0.5 {
		unrollIdx = rng.Intn(len(perm))
	}
	vectorize := rng.Float64() < 0.5
	return func(s *schedule.Schedule) {
		for _, sp := range splits {
			_, _, _ = s.Split(s.Leaves[sp.leaf], sp.factor)
		}
		order := make([]*schedule.IterVar, len(perm))
		for i, p := range perm {
			order[i] = s.Leaves[p]
		}
		_ = s.Reorder(order)
		if unrollIdx >= 0 {
			if leaf := s.Leaves[unrollIdx]; leaf.Ann == schedule.AnnNone {
				_ = s.Unroll(leaf)
			}
		}
		last := s.Leaves[len(s.Leaves)-1]
		if vectorize && last.Kind() == te.Spatial && last.Ann == schedule.AnnNone {
			_ = s.Vectorize(last)
		}
	}
}

func TestBlockAggregationBitIdentical(t *testing.T) {
	for _, arch := range isa.Archs() {
		for _, tc := range diffCases() {
			for _, compute := range []bool{false, true} {
				name := string(arch) + "/" + tc.name
				if compute {
					name += "/computeValues"
				}
				t.Run(name, func(t *testing.T) {
					refStats, refHW := runBoth(t, tc, arch, compute, lower.ExecutePerInstruction)
					aggStats, aggHW := runBoth(t, tc, arch, compute, lower.Execute)

					// The aggregated encoding must deliver strictly fewer
					// protocol events; the statistics themselves are compared
					// with the diagnostics blanked.
					if aggStats.SinkEvents >= refStats.SinkEvents {
						t.Errorf("aggregation did not reduce events: %d vs %d",
							aggStats.SinkEvents, refStats.SinkEvents)
					}
					refStats.SimWallSeconds, aggStats.SimWallSeconds = 0, 0
					refStats.SinkEvents, aggStats.SinkEvents = 0, 0
					if !reflect.DeepEqual(refStats, aggStats) {
						t.Errorf("sim stats differ:\nper-instr: %+v\naggregated: %+v", refStats, aggStats)
					}
					if rc, ac := refHW.Cycles(), aggHW.Cycles(); rc != ac {
						t.Errorf("hw cycles differ: per-instr %v vs aggregated %v", rc, ac)
					}
					if rm, am := refHW.Mispredicts(), aggHW.Mispredicts(); rm != am {
						t.Errorf("hw mispredicts differ: %d vs %d", rm, am)
					}
				})
			}
		}
	}
}
