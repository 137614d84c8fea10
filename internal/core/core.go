// Package core implements Contribution II of the paper: the score-predictor
// workflow of Fig. 4. In the training phase (I), the auto-scheduler
// generates implementations per kernel group; each is executed natively on
// the target (here: the hw timing model with the paper's N_exe/cooldown
// measurement methodology) and on the instruction-accurate simulator; the
// resulting (statistics, reference-time) pairs train one predictor per
// architecture and kernel type. In the execution phase (II), the target CPU
// is no longer required: candidates run only on simulators and the trained
// predictor converts statistics to scores through windowed group
// normalization (§III-E).
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ansor"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/te"
)

// Implementation is one measured schedule of a group: its transform steps,
// the native reference measurement, and the IA-simulator statistics.
type Implementation struct {
	Steps []schedule.Step
	// TrefSec is the median-of-N_exe reference time (paper methodology).
	TrefSec float64
	// TrueSec is the noiseless modelled time (diagnostics/ablations only).
	TrueSec float64
	// NativeElapsedSec is the wall-clock cost of the native measurement
	// including cooldowns (Eq. 4 bookkeeping).
	NativeElapsedSec float64
	// Stats are the instruction-accurate simulator statistics.
	Stats *sim.Stats
	// SimWallSec is the measured wall time of our own simulator run.
	SimWallSec float64
}

// GroupData holds every implementation generated for one kernel group.
type GroupData struct {
	Group       int
	WorkloadKey string
	Impls       []Implementation
}

// Dataset is the full training corpus of one (architecture, kernel type)
// pair across groups.
type Dataset struct {
	Arch   isa.Arch
	Scale  te.Scale
	Kernel string
	Groups []GroupData
}

// DatasetConfig controls dataset generation.
type DatasetConfig struct {
	Arch  isa.Arch
	Scale te.Scale
	// Groups lists the Table II group indices to include.
	Groups []int
	// ImplsPerGroup is the number of auto-scheduler candidates per group
	// (paper: 500).
	ImplsPerGroup int
	// BatchSize is the auto-scheduler measurement batch.
	BatchSize int
	// NParallel is the simulator parallelism.
	NParallel int
	// MeasureOpt is the native measurement methodology.
	MeasureOpt hw.MeasureOptions
	// Seed drives every stochastic component.
	Seed uint64
	// FactoryFor optionally overrides the workload built per group index,
	// enabling datasets for other kernel types (matmul, dense, depthwise) —
	// the paper trains one predictor per kernel type (§III-C). The default
	// (nil) builds the Table II conv groups at Scale. Datasets with a custom
	// factory cannot be disk-cached (code is not fingerprintable).
	FactoryFor func(group int) runner.WorkloadFactory `json:"-"`
}

// DefaultDatasetConfig returns a small-scale configuration.
func DefaultDatasetConfig(arch isa.Arch) DatasetConfig {
	return DatasetConfig{
		Arch: arch, Scale: te.ScaleSmall,
		Groups:        []int{0, 1, 2, 3, 4},
		ImplsPerGroup: 80, BatchSize: 16, NParallel: 4,
		MeasureOpt: hw.DefaultMeasureOptions(), Seed: 1,
	}
}

// DualRunner measures each candidate on the timing model ("native") and the
// instruction-accurate simulator in one program execution — the timing
// model is the simulator plus a miss-latency overlay, so one replay yields
// both the cycles and the IA statistics. This is the training-phase setup of
// Fig. 4-I where workloads run in both worlds.
// The search score is the native reference time, so dataset generation
// behaves like ordinary hardware autotuning.
type DualRunner struct {
	Prof hw.Profile
	Opt  hw.MeasureOptions
	NPar int
	rng  *num.RNG
}

// NewDualRunner builds the training-phase runner.
func NewDualRunner(prof hw.Profile, opt hw.MeasureOptions, nParallel int, rng *num.RNG) *DualRunner {
	if nParallel < 1 {
		nParallel = 1
	}
	return &DualRunner{Prof: prof, Opt: opt, NPar: nParallel, rng: rng}
}

// Name implements runner.Runner.
func (d *DualRunner) Name() string { return "dual[" + string(d.Prof.Arch) + "]" }

// NParallel implements runner.Runner.
func (d *DualRunner) NParallel() int { return d.NPar }

// Run implements runner.Runner.
func (d *DualRunner) Run(inputs []runner.MeasureInput, builds []runner.BuildResult) []runner.MeasureResult {
	out := make([]runner.MeasureResult, len(builds))
	// Pre-draw measurement-noise seeds so parallel execution stays
	// deterministic.
	seeds := make([]uint64, len(builds))
	for i := range seeds {
		seeds[i] = d.rng.Uint64()
	}
	runner.Parallel(d.NPar, len(builds), func(i int) {
		if builds[i].Err != nil {
			out[i] = runner.MeasureResult{Err: builds[i].Err, Score: math.Inf(1)}
			return
		}
		prog := builds[i].Prog
		// Pooled machines: dataset generation simulates thousands of
		// candidates, so cache hierarchies are re-used via Reset() instead
		// of being rebuilt per candidate.
		hwM, err := hw.AcquireMachine(d.Prof)
		if err != nil {
			out[i] = runner.MeasureResult{Err: err, Score: math.Inf(1)}
			return
		}
		defer hw.ReleaseMachine(hwM)
		start := time.Now()
		lower.Execute(prog, hwM, false)
		simWall := time.Since(start).Seconds()
		meas := hw.SampleMeasurement(hwM.Seconds(), hwM.Cycles(), d.Prof, d.Opt, num.NewRNG(seeds[i]))
		st := hwM.Stats()
		st.SimWallSeconds = simWall
		out[i] = runner.MeasureResult{
			Score: meas.TrefSec, TimeSec: meas.TrefSec, Stats: st,
			TrueTimeSec: meas.TrueSec, ElapsedSec: meas.ElapsedSec,
		}
	})
	return out
}

// GenerateDataset runs the training-phase data collection of Fig. 4-I: the
// auto-scheduler explores ImplsPerGroup implementations per group, each
// measured natively and simulated.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("core: no groups configured")
	}
	prof := hw.Lookup(cfg.Arch)
	rng := num.NewRNG(cfg.Seed)
	ds := &Dataset{Arch: cfg.Arch, Scale: cfg.Scale, Kernel: "conv2d_bias_relu"}
	for _, g := range cfg.Groups {
		group := g
		var factory runner.WorkloadFactory
		if cfg.FactoryFor != nil {
			factory = cfg.FactoryFor(group)
			ds.Kernel = factory().Kernel
		} else {
			factory = func() *te.Workload { return te.ConvGroup(cfg.Scale, group) }
		}
		opt := ansor.DefaultOptions()
		opt.Trials = cfg.ImplsPerGroup
		opt.BatchSize = cfg.BatchSize
		opt.Builder = runner.LocalBuilder{Arch: cfg.Arch}
		opt.Runner = NewDualRunner(prof, cfg.MeasureOpt, cfg.NParallel, rng.Split())
		records, err := ansor.Search(factory, opt, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", group, err)
		}
		gd := GroupData{Group: group, WorkloadKey: factory().Key}
		for _, r := range records {
			if r.Err != nil || r.Stats == nil {
				continue
			}
			gd.Impls = append(gd.Impls, Implementation{
				Steps: r.Steps, TrefSec: r.TimeSec, TrueSec: r.TrueTimeSec,
				NativeElapsedSec: r.ElapsedSec, Stats: r.Stats,
				SimWallSec: r.Stats.SimWallSeconds,
			})
		}
		if len(gd.Impls) < 4 {
			return nil, fmt.Errorf("core: group %d produced only %d valid impls", group, len(gd.Impls))
		}
		ds.Groups = append(ds.Groups, gd)
	}
	return ds, nil
}

// GroupByIndex returns the group data with the given Table II index.
func (ds *Dataset) GroupByIndex(group int) (*GroupData, bool) {
	for i := range ds.Groups {
		if ds.Groups[i].Group == group {
			return &ds.Groups[i], true
		}
	}
	return nil, false
}
