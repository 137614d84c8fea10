package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/ansor"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/metrics"
	"repro/internal/num"
	"repro/internal/predictor"
	"repro/internal/predictor/xgb"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/te"
)

// tune-inproc: the paper's Fig. 4-II path. Set-up trains one XGBoost
// predictor per architecture on a seeded tiny-scale dataset of the training
// groups; the timed phase tunes the held-out group at small scale on
// in-process simulators (Ansor search, batch 16, n_parallel = nproc) and
// validates the top 3 % on the target timing model, cycling x86 → ARM →
// RISC-V until the time is up.

const (
	tunedGroup = 3
	tunedScale = te.ScaleSmall
	trainScale = te.ScaleTiny
	tuneBatch  = 16
	// tuneTailQ is the batch-latency tail reported for tune-inproc: a run
	// measures tens of batches, so p75 is the highest quantile with ten
	// samples beyond it.
	tuneTailQ = 0.75
)

var trainGroups = []int{0, 1, 2, 4}

type tuneSizes struct {
	setups, implsPerGroup, trials, refChecks int
	// minBatches leaves ten batches beyond the tail quantile with margin.
	minBatches int
}

func tuneSizesFor(short bool) tuneSizes {
	if short {
		return tuneSizes{setups: 1, implsPerGroup: 8, trials: 16, refChecks: 1, minBatches: 0}
	}
	return tuneSizes{setups: 5, implsPerGroup: 32, trials: 32, refChecks: 2, minBatches: 48}
}

// topK is the paper's "re-execute the top 2-3 % of the predictions".
func topK(trials int) int { return int(math.Ceil(0.03 * float64(trials))) }

func runTune(cfg *config) (*outcome, error) {
	o := newOutcome()
	sz := tuneSizesFor(cfg.short)
	archs := isa.Archs()

	in := newDigest()
	in.write("tune", sz.implsPerGroup, sz.trials, trainGroups, tunedGroup, tunedScale, trainScale)
	for _, a := range archs {
		in.write(a, derive(cfg.seed, "train/"+string(a), 0), derive(cfg.seed, "xgb/"+string(a), 0))
	}
	// A run makes about 25 rounds; 64 covers any that finishes in time.
	for i := 0; i < 64; i++ {
		in.write(derive(cfg.seed, "tune", i), derive(cfg.seed, "validate", i))
	}
	cfg.logf("input hash %s (seed %d)", in.hex(), cfg.seed)

	var setupS, datasetS, fitS []float64
	var preds map[isa.Arch]predictor.Predictor
	var first string
	for k := 0; k < sz.setups; k++ {
		sw := startWatch()
		p, ds, fit, dg, err := tuneSetup(cfg.seed, sz)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, sw.seconds())
		datasetS = append(datasetS, ds)
		fitS = append(fitS, fit)
		if k == 0 {
			first, preds = dg, p
		}
		o.check(dg == first, "set-up %d dataset digest %s differs from set-up 0 %s", k, dg, first)
	}
	cfg.logf("set-up: %d x, median %.3f s (dataset %.3f s, fit %.3f s), dataset digest %s",
		sz.setups, median(setupS), median(datasetS), median(fitS), first)

	plain, err := tunePass(cfg, sz, preds, nil)
	if err != nil {
		return nil, err
	}
	plain.report(cfg, "untraced")
	plain.verify(cfg, o, sz)

	o.attempted, o.failed = plain.cands, plain.failed
	plain.endToEnd(cfg, o, median(setupS), 1, tuneTailQ)

	if !cfg.trace {
		return o, nil
	}
	rec := newRecorder()
	traced, err := tunePass(cfg, sz, preds, rec)
	if err != nil {
		return nil, err
	}
	traced.report(cfg, "traced")
	o.check(traced.digest == plain.digest, "traced cycle-0 digest %s differs from untraced %s", traced.digest, plain.digest)
	again, err := tunePass(cfg, sz, preds, nil)
	if err != nil {
		return nil, err
	}
	again.report(cfg, "untraced again")
	o.check(again.digest == plain.digest, "second untraced cycle-0 digest %s differs from the first %s", again.digest, plain.digest)
	o.attempted += traced.cands + again.cands
	o.failed += traced.failed + again.failed

	a := attribute(rec.snapshot(), 1, traced.from, traced.to)
	a.print(cfg, o)
	perCand := func(name string) float64 { return a.total[name] / float64(traced.cands) }
	o.layer("core.dataset_s", median(datasetS))
	o.layer("predictor.fit_s", median(fitS))
	o.layer("ansor.propose_s", a.self["core.ExecutionPhase"]/float64(traced.cands))
	o.layer("lower.build_s", perCand("lower.Build"))
	o.layer("lower.build_calls", float64(traced.probe.built.Load())/float64(traced.cands))
	o.layer("runner.run_s", perCand("runner.Run"))
	o.layer("predictor.predict_s", perCand("predictor.Predict"))
	o.layer("hw.validate_s", perCand("hw.ValidateOnTarget"))
	o.layer("sim.instr_per_s", float64(traced.probe.simInstr.Load())/(float64(traced.probe.simNS.Load())/1e9))
	plain.counts.report(o)
	o.layer("go.gc_pause_ms", float64(plain.procAfter.pauseNS-plain.procBefore.pauseNS)/1e6)
	o.layer("trace.overhead_ratio", overhead(plain.secPerCand(), traced.secPerCand(), again.secPerCand()))
	o.layer("ansor.tuned_best_us", plain.bestUS())
	rtop1, err := plain.rtop1(cfg.seed)
	if err != nil {
		return nil, err
	}
	o.layer("predictor.rtop1_pct", rtop1)
	cfg.logf("predictor Rtop1 %.2f %% (cycle 0, mean over archs), tuned best %.3f us (geomean)", rtop1, plain.bestUS())
	return o, writeSpans(cfg, rec, "tune-inproc")
}

// tuneSetup generates the training datasets and fits one predictor per
// architecture. It returns the per-phase seconds and a digest over the
// datasets, which must not differ between repetitions.
func tuneSetup(seed uint64, sz tuneSizes) (map[isa.Arch]predictor.Predictor, float64, float64, string, error) {
	preds := map[isa.Arch]predictor.Predictor{}
	dg := newDigest()
	var dsS, fitS float64
	for _, arch := range isa.Archs() {
		sw := startWatch()
		ds, err := core.GenerateDataset(core.DatasetConfig{
			Arch: arch, Scale: trainScale, Groups: trainGroups,
			ImplsPerGroup: sz.implsPerGroup, BatchSize: tuneBatch, NParallel: nproc(),
			MeasureOpt: hw.DefaultMeasureOptions(), Seed: derive(seed, "train/"+string(arch), 0),
		})
		if err != nil {
			return nil, 0, 0, "", fmt.Errorf("dataset %s: %w", arch, err)
		}
		dsS += sw.seconds()
		all := core.SplitIndices{Train: map[int][]int{}}
		for _, g := range ds.Groups {
			for i, impl := range g.Impls {
				all.Train[g.Group] = append(all.Train[g.Group], i)
				dg.add(impl.Steps, impl.Stats)
				dg.write(impl.TrefSec)
			}
		}
		x, y, _, err := core.TrainingMatrix(ds, all, trainGroups)
		if err != nil {
			return nil, 0, 0, "", fmt.Errorf("training matrix %s: %w", arch, err)
		}
		sw = startWatch()
		p := xgb.New(xgb.DefaultConfig(), num.NewRNG(derive(seed, "xgb/"+string(arch), 0)))
		if err := p.Fit(x, y); err != nil {
			return nil, 0, 0, "", fmt.Errorf("fit %s: %w", arch, err)
		}
		fitS += sw.seconds()
		preds[arch] = p
	}
	return preds, dsS, fitS, dg.hex(), nil
}

// tuneProbe holds the state the wrapped Builder, Runner, Predictor and
// simulator hook share: the open parent spans, the batch clock and the
// simulator counters.
type tuneProbe struct {
	rec        *recorder
	epSpan     atomic.Int64
	runSpan    atomic.Int64
	start      time.Time // of the timed phase
	batchStart time.Time
	samples    []sample
	built      atomic.Int64
	simNS      atomic.Int64
	simInstr   atomic.Uint64
}

// probeBuilder is the ExecutionOptions.Builder hook: it starts the batch
// clock and, when tracing, spans lower.Build for the batch.
type probeBuilder struct {
	p     *tuneProbe
	inner runner.Builder
}

func (b probeBuilder) Build(in []runner.MeasureInput) []runner.BuildResult {
	b.p.batchStart = time.Now()
	_, end := b.p.rec.begin("lower.Build", b.p.epSpan.Load(), "", 0)
	out := b.inner.Build(in)
	end()
	b.p.built.Add(int64(len(in)))
	return out
}

// probeRunner is the ExecutionOptions.Runner hook around the in-process
// SimulatorRunner the execution phase would otherwise build itself; it
// stops the batch clock.
type probeRunner struct {
	p     *tuneProbe
	inner *runner.SimulatorRunner
}

func (r *probeRunner) Name() string              { return r.inner.Name() }
func (r *probeRunner) NParallel() int            { return r.inner.NParallel() }
func (r *probeRunner) SetScorer(s runner.Scorer) { r.inner.SetScorer(s) }

func (r *probeRunner) Run(in []runner.MeasureInput, builds []runner.BuildResult) []runner.MeasureResult {
	id, end := r.p.rec.begin("runner.Run", r.p.epSpan.Load(), "", 0)
	r.p.runSpan.Store(id)
	out := r.inner.Run(in, builds)
	end()
	s := sample{at: time.Since(r.p.start).Seconds(), ms: float64(time.Since(r.p.batchStart)) / 1e6}
	for _, m := range out {
		if m.Err == nil && m.Stats != nil {
			s.cands++
			s.instr += m.Stats.Total
		}
	}
	r.p.samples = append(r.p.samples, s)
	return out
}

// probePredictor spans every Predict call the windowed scorer makes.
type probePredictor struct {
	predictor.Predictor
	p *tuneProbe
}

func (q probePredictor) Predict(x []float64) float64 {
	_, end := q.p.rec.begin("predictor.Predict", q.p.runSpan.Load(), "", 0)
	v := q.Predictor.Predict(x)
	end()
	return v
}

// tuneRound is one ExecutionPhase + validation on one architecture.
type tuneRound struct {
	arch    isa.Arch
	records []ansor.Record
	bestSec float64
}

// tunePassResult is one timed phase. Rounds 0-2 (one per architecture) are
// always run and are a pure function of the seed; the digest, the
// simulator counts and the quality figures come from them.
type tunePassResult struct {
	phase
	instr  uint64
	cycle0 []tuneRound
	rounds int
	digest string
	counts simCounts
	probe  *tuneProbe
}

func tunePass(cfg *config, sz tuneSizes, preds map[isa.Arch]predictor.Predictor, rec *recorder) (*tunePassResult, error) {
	archs := isa.Archs()
	probe := &tuneProbe{rec: rec}
	res := &tunePassResult{probe: probe}
	if rec != nil {
		hook := func(p *lower.Program) (*sim.Stats, error) {
			_, end := rec.begin("sim.Run", probe.runSpan.Load(), "", 0)
			t0 := time.Now()
			st, err := sim.Run(p, hw.Lookup(p.Model.Arch).Caches)
			probe.simNS.Add(int64(time.Since(t0)))
			end()
			if st != nil {
				probe.simInstr.Add(st.Total)
			}
			return st, err
		}
		if err := runner.RegisterFunc(runner.SimulatorRunKey, hook, true); err != nil {
			return nil, err
		}
		defer runner.UnregisterFunc(runner.SimulatorRunKey)
		rec.on.Store(true)
		defer rec.on.Store(false)
		res.from = rec.now()
	}
	res.procBefore = readProcStats()
	mem := startMemSampler()
	probe.start = time.Now()
	sw := startWatch()
	// Run at least one cycle and enough batches for the tail quantile; on
	// a slow host that takes longer than cfg.seconds.
	for i := 0; i < len(archs) || sw.seconds() < cfg.seconds || len(probe.samples) < sz.minBatches; i++ {
		arch := archs[i%len(archs)]
		prof := hw.Lookup(arch)
		pred := preds[arch]
		if rec != nil {
			pred = probePredictor{Predictor: pred, p: probe}
		}
		id, endEP := rec.begin("core.ExecutionPhase", 0, "", 0)
		probe.epSpan.Store(id)
		records, err := core.ExecutionPhase(prof, pred, core.ExecutionOptions{
			Scale: tunedScale, Group: tunedGroup, Trials: sz.trials, BatchSize: tuneBatch,
			NParallel: nproc(), Window: "dynamic", Seed: derive(cfg.seed, "tune", i),
			Builder: probeBuilder{p: probe, inner: runner.LocalBuilder{Arch: arch}},
			Runner:  &probeRunner{p: probe, inner: runner.NewSimulatorRunner(prof.Caches, nproc(), nil)},
		})
		endEP()
		if err != nil {
			return nil, fmt.Errorf("execution phase %s round %d: %w", arch, i, err)
		}
		_, endV := rec.begin("hw.ValidateOnTarget", 0, "", 0)
		best, _, err := core.ValidateOnTarget(prof, tunedScale, tunedGroup, core.TopK(records, topK(sz.trials)),
			hw.DefaultMeasureOptions(), num.NewRNG(derive(cfg.seed, "validate", i)))
		endV()
		if err != nil {
			return nil, fmt.Errorf("validate %s round %d: %w", arch, i, err)
		}
		for _, r := range records {
			res.cands++
			if r.Err != nil || r.Stats == nil {
				res.failed++
				continue
			}
			res.instr += r.Stats.Total
		}
		if i < len(archs) {
			res.cycle0 = append(res.cycle0, tuneRound{arch: arch, records: records, bestSec: best})
		}
		res.rounds = i + 1
	}
	res.wall = sw.seconds()
	res.memMB = mem.median()
	res.procAfter = readProcStats()
	if rec != nil {
		res.to = rec.now()
	}
	res.samples = probe.samples
	dg := newDigest()
	for _, r := range res.cycle0 {
		for _, rc := range r.records {
			dg.add(rc.Steps, rc.Stats)
			res.counts.add(rc.Stats)
		}
		dg.write(r.bestSec)
	}
	res.digest = dg.hex()
	return res, nil
}

func (r *tunePassResult) report(cfg *config, label string) {
	cfg.logf("%s: %d rounds, %d candidates (%d failed) in %.2f s: %.1f cand/s, %.1fM instr/s; cycle-0 stats digest %s",
		label, r.rounds, r.cands, r.failed, r.wall, float64(r.cands)/r.wall, float64(r.instr)/r.wall/1e6, r.digest)
}

// verify re-runs a seeded sample of cycle-0 candidates through the
// per-instruction reference executor; their statistics must be identical.
func (r *tunePassResult) verify(cfg *config, o *outcome, sz tuneSizes) {
	rng := num.NewRNG(derive(cfg.seed, "refcheck", 0))
	checked := 0
	for _, round := range r.cycle0 {
		caches := hw.Lookup(round.arch).Caches
		for n := 0; n < sz.refChecks; n++ {
			rc := round.records[rng.Intn(len(round.records))]
			if rc.Err != nil || rc.Stats == nil {
				continue
			}
			prog, err := buildProgram(round.arch, service.ConvGroupSpec(tunedScale, tunedGroup), rc.Steps)
			if err != nil {
				o.check(false, "build %s candidate: %v", round.arch, err)
				continue
			}
			m, err := sim.New(round.arch, caches)
			if err != nil {
				o.check(false, "simulator %s: %v", round.arch, err)
				continue
			}
			lower.ExecutePerInstruction(prog, m, false)
			ref := m.Stats()
			ref.SinkEvents = rc.Stats.SinkEvents // the event count is what differs by design
			o.check(sameStats(ref, rc.Stats), "%s candidate %x: statistics differ from the per-instruction reference",
				round.arch, schedule.Canonical(rc.Steps)[:8])
			checked++
		}
	}
	cfg.logf("reference check: %d candidates identical to lower.ExecutePerInstruction", checked)
}

// bestUS is the geometric mean over architectures of the best validated
// target time of cycle 0, in microseconds.
func (r *tunePassResult) bestUS() float64 {
	s := 0.0
	for _, round := range r.cycle0 {
		s += math.Log(round.bestSec * 1e6)
	}
	return math.Exp(s / float64(len(r.cycle0)))
}

// rtop1 measures every cycle-0 candidate on the target timing model and
// returns the paper's Rtop1 of the tuner's predicted scores, averaged over
// architectures: the rank of the truly fastest candidate in the predicted
// order, as a percentage of the candidates.
func (r *tunePassResult) rtop1(seed uint64) (float64, error) {
	sum := 0.0
	for _, round := range r.cycle0 {
		prof := hw.Lookup(round.arch)
		var inputs []runner.MeasureInput
		var scores []float64
		factory := func() *te.Workload { return te.ConvGroup(tunedScale, tunedGroup) }
		for _, rc := range round.records {
			if rc.Err == nil && rc.Stats != nil {
				inputs = append(inputs, runner.MeasureInput{Factory: factory, Steps: rc.Steps})
				scores = append(scores, rc.Score)
			}
		}
		builds := runner.LocalBuilder{Arch: round.arch}.Build(inputs)
		tref := make([]float64, len(builds))
		errs := make([]error, len(builds))
		runner.Parallel(nproc(), len(builds), func(i int) {
			if builds[i].Err != nil {
				errs[i] = builds[i].Err
				return
			}
			m, err := hw.Measure(builds[i].Prog, prof, hw.DefaultMeasureOptions(),
				num.NewRNG(derive(seed, "rtop1/"+string(round.arch), i)))
			tref[i], errs[i] = m.TrefSec, err
		})
		for _, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("measure %s: %w", round.arch, err)
			}
		}
		sum += metrics.Evaluate(tref, scores).Rtop1
	}
	return sum / float64(len(r.cycle0)), nil
}
