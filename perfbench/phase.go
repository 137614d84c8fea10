package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sample is one completed batch of a timed phase.
type sample struct {
	at    float64 // seconds since the phase start when the batch completed
	ms    float64 // its latency
	cands int64
	instr uint64 // instructions of the statistics it returned
}

// phase is what every timed phase measures: its batches, its candidate
// ledger and its memory.
type phase struct {
	samples               []sample
	wall                  float64
	cands, failed         int64
	memMB                 float64
	procBefore, procAfter procStats
	from, to              int64 // recorder clock, when traced
	// open marks an open loop, whose throughput is the offered load: it is
	// taken over the whole phase, since equal-count chunks of Poisson
	// arrivals differ in length by chance.
	open bool
}

// endToEnd reports the phase's end-to-end metrics. The phase is cut into
// chunks of equal batch count, each metric is computed per chunk, and the
// median over chunks is reported, so that a burst of interference from
// other processes moves one chunk, not the result. q is the tail quantile;
// every chunk must leave at least ten samples beyond it. Batch latency and
// the live heap go to the per-layer metrics: on a shared host they moved
// too far between runs to carry a regression bound. The CPU time per
// candidate is taken over the whole phase: it is the one figure the
// program alone sets on the open loop, whose throughput is its offered load.
func (p *phase) endToEnd(cfg *config, o *outcome, setupS float64, chunks int, q float64) {
	s := p.summarize(chunks, q)
	o.check(s.enough || cfg.short, "chunks of %d batches leave fewer than ten beyond p%g", s.chunkLen, 100*q)
	o.e2e("setup_s", setupS)
	o.e2e("cand_per_s", s.candPerS)
	o.e2e("sim_instr_per_s", s.instrPerS)
	o.e2e("cpu_ms_per_cand", p.cpuMSPerCand())
	o.e2e("ok_ratio", float64(p.cands-p.failed)/float64(p.cands))
	o.layer("client.batch_p50_ms", s.p50)
	o.layer("client.batch_tail_ms", s.tail)
	o.layer("go.heap_live_mb", p.memMB)
	ms := make([]float64, len(p.samples))
	for i, smp := range p.samples {
		ms[i] = smp.ms
	}
	cfg.logf("end-to-end over %d chunks of %d batches: %.1f cand/s, %.4g instr/s, batch p50 %.3f ms, p%g %.3f ms (pooled p99 %.3f ms of %d), live heap %.1f MB",
		chunks, s.chunkLen, s.candPerS, s.instrPerS, s.p50, 100*q, s.tail, quantile(ms, 0.99), len(ms), p.memMB)
}

type summary struct {
	candPerS, instrPerS, p50, tail float64
	chunkLen                       int
	enough                         bool
}

func (p *phase) summarize(chunks int, q float64) summary {
	ss := append([]sample(nil), p.samples...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	if len(ss) == 0 {
		return summary{}
	}
	chunks = min(chunks, len(ss))
	var cps, ips, p50s, tails []float64
	start := 0.0
	n := len(ss) / chunks
	for c := 0; c < chunks; c++ {
		lo, hi := c*n, (c+1)*n
		if c == chunks-1 {
			hi = len(ss)
		}
		var cands int64
		var instr uint64
		var ms []float64
		for _, s := range ss[lo:hi] {
			cands += s.cands
			instr += s.instr
			ms = append(ms, s.ms)
		}
		end := ss[hi-1].at
		cps = append(cps, float64(cands)/(end-start))
		ips = append(ips, float64(instr)/(end-start))
		p50s = append(p50s, quantile(ms, 0.5))
		tails = append(tails, quantile(ms, q))
		start = end
	}
	out := summary{candPerS: median(cps), instrPerS: median(ips), p50: median(p50s), tail: median(tails),
		chunkLen: n, enough: float64(n)*(1-q) >= 10}
	if p.open {
		var cands int64
		var instr uint64
		for _, s := range ss {
			cands += s.cands
			instr += s.instr
		}
		out.candPerS, out.instrPerS = float64(cands)/p.wall, float64(instr)/p.wall
	}
	return out
}

// memSampler samples the live heap, the heap the last garbage collection
// found reachable: the memory the program needs, without the GC's
// timing-dependent headroom above it.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mb   []float64
}

func readMemMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			m.mb = append(m.mb, readMemMB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// median stops the sampler and returns the median sample.
func (m *memSampler) median() float64 {
	close(m.stop)
	m.done.Wait()
	return median(m.mb)
}

// passLabels name a traced run's phases: untraced, traced, then untraced
// again, so that host drift and warm-up cancel out of the overhead.
var passLabels = []string{"untraced", "traced", "untraced again"}

// overhead is the traced phase's cost over the mean of the untraced phases
// around it.
func overhead(before, traced, after float64) float64 { return traced / ((before + after) / 2) }

func (p *phase) secPerCand() float64 { return p.wall / float64(p.cands) }

// cpuMSPerCand is the process CPU time (user plus system, every layer in
// the process) per candidate.
func (p *phase) cpuMSPerCand() float64 {
	return 1e3 * (p.procAfter.cpuS - p.procBefore.cpuS) / float64(p.cands)
}

func (p *phase) meanMS() float64 {
	s := 0.0
	for _, smp := range p.samples {
		s += smp.ms
	}
	return s / float64(len(p.samples))
}

func (p *phase) log(cfg *config, label string) {
	cfg.logf("%s: %d batches, %d candidates (%d failed) in %.2f s, %.3f CPU ms per candidate",
		label, len(p.samples), p.cands, p.failed, p.wall, p.cpuMSPerCand())
}
