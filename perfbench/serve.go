package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ansor"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/sim"
)

// Shared by the two serve-* workloads: candidate pools, priming, the
// per-batch span analysis and the statusz ledger.

const (
	fleetNodes = 3
	serveArch  = isa.RISCV
	serveBatch = 16
	// serveTailQ is the serve workloads' tail quantile. On a 2-CPU host
	// shared with other machines, p99 of a saturated closed loop moved by
	// half its value between runs; p90 keeps over twenty samples beyond it
	// in every chunk of both workloads and moves far less.
	serveTailQ = 0.9
)

// pool is a set of distinct candidates of one workload.
type pool struct {
	spec  service.WorkloadSpec
	steps [][]schedule.Step
	keys  []string // canonical step encodings
}

// drawPool draws n candidates of spec whose canonical steps are in neither
// seen nor each other, and adds them to seen.
func drawPool(spec service.WorkloadSpec, n int, seed uint64, seen map[string]bool) (*pool, error) {
	factory, err := spec.Factory()
	if err != nil {
		return nil, err
	}
	p := &pool{spec: spec}
	rng := num.NewRNG(seed)
	for tries := 0; len(p.steps) < n; tries++ {
		if tries > 50 {
			return nil, fmt.Errorf("only %d distinct candidates of %s", len(p.steps), spec.Kind)
		}
		sk, err := ansor.RandomSketches(factory, n-len(p.steps), rng)
		if err != nil {
			return nil, fmt.Errorf("sketches: %w", err)
		}
		for _, s := range sk {
			k := string(schedule.Canonical(s.Steps))
			if seen[k] {
				continue
			}
			seen[k] = true
			p.steps = append(p.steps, s.Steps)
			p.keys = append(p.keys, k)
		}
	}
	return p, nil
}

func (p *pool) request(idx []int) *service.SimulateRequest {
	req := &service.SimulateRequest{Arch: string(serveArch), Workload: p.spec}
	for _, i := range idx {
		req.Candidates = append(req.Candidates, service.Candidate{Steps: p.steps[i]})
	}
	return req
}

// prime simulates the whole pool through the fleet and returns the stats
// each candidate got; every one must be a miss.
func prime(ctx context.Context, url string, p *pool) ([]*sim.Stats, error) {
	cl := service.NewClient(url)
	out := make([]*sim.Stats, len(p.steps))
	for lo := 0; lo < len(p.steps); lo += serveBatch {
		hi := min(lo+serveBatch, len(p.steps))
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		resp, err := cl.Simulate(ctx, p.request(idx))
		if err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
		for j, r := range resp.Results {
			if r.Err != "" || r.Stats == nil || r.CacheHit {
				return nil, fmt.Errorf("prime candidate %d: err %q hit %v", lo+j, r.Err, r.CacheHit)
			}
			out[lo+j] = r.Stats
		}
	}
	return out, nil
}

// setUpFleets starts a fleet and primes it with the pools, setups times,
// each on a fresh fleet, and checks that every set-up gives the same stats
// digest. It returns the last fleet, still running, the stats it primed
// per pool and the median set-up time.
func setUpFleets(ctx context.Context, cfg *config, o *outcome, setups int, start func(k int) (*fleet, error),
	pools []*pool) (f *fleet, expected [][]*sim.Stats, setupS float64, err error) {
	var times []float64
	var first string
	for k := 0; k < setups; k++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		sw := startWatch()
		if f, err = start(k); err != nil {
			return nil, nil, 0, err
		}
		expected = expected[:0]
		dg := newDigest()
		for _, p := range pools {
			st, err := prime(ctx, f.url, p)
			if err != nil {
				f.close()
				return nil, nil, 0, err
			}
			expected = append(expected, st)
			for i := range st {
				dg.add(p.steps[i], st[i])
			}
		}
		times = append(times, sw.seconds())
		if k == 0 {
			first = dg.hex()
		}
		o.check(dg.hex() == first, "set-up %d stats digest %s differs from set-up 0 %s", k, dg.hex(), first)
	}
	n := 0
	for _, p := range pools {
		n += len(p.steps)
	}
	cfg.logf("set-up: %d x, median %.3f s; corpus %d candidates in %d pools, stats digest %s",
		setups, median(times), n, len(pools), first)
	return f, expected, median(times), nil
}

// tracePasses runs a serve workload's traced pass and the untraced pass
// after it, and adds both to the candidate ledger.
func tracePasses(o *outcome, rec *recorder, pass func(n int) (*phase, error)) (traced, again *phase, err error) {
	rec.on.Store(true)
	traced, err = pass(1)
	rec.on.Store(false)
	if err != nil {
		return nil, nil, err
	}
	if again, err = pass(2); err != nil {
		return nil, nil, err
	}
	o.attempted += traced.cands + again.cands
	o.failed += traced.failed + again.failed
	return traced, again, nil
}

// serveLayers reports the per-layer metrics both serve workloads measure:
// the self-time split of the traced pass, the wire hops, key derivation
// over the pools, wire bytes, allocations, node hit batches, GC pauses and
// the tracing overhead.
func serveLayers(cfg *config, o *outcome, tap *tap, pools []*pool, plain, traced *phase, overheadRatio float64) {
	spans := tap.rec.snapshot()
	a := attribute(spans, nproc(), traced.from, traced.to)
	a.print(cfg, o)
	tr, rs, nd := hopSplit(spans)
	o.layer("service.key_us_per_cand", keyMicros(pools))
	o.layer("service.transport_ms", tr)
	o.layer("service.router_self_ms", rs)
	o.layer("service.node_handler_ms", nd)
	o.layer("service.wire_bytes_per_cand", float64(tap.wireBytes.Load())/float64(traced.cands))
	o.layer("service.allocs_per_cand", float64(plain.procAfter.mallocs-plain.procBefore.mallocs)/float64(plain.cands))
	o.layer("service.node_hit_batch_ms", tap.nodeHit.median())
	o.layer("go.gc_pause_ms", float64(plain.procAfter.pauseNS-plain.procBefore.pauseNS)/1e6)
	o.layer("trace.overhead_ratio", overheadRatio)
	cfg.logf("hops (median per batch): transport %.3f ms, router self %.3f ms, node handlers %.3f ms; node sub-batch p50 hit %.3f ms",
		tr, rs, nd, tap.nodeHit.median())
}

// storeRoot is a fresh directory for one fleet's node stores.
func storeRoot(cfg *config, label string, k int) (string, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", label, os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// batchID is the trace ID a traced batch carries on the wire.
func batchID(pass, lane, n int) string { return fmt.Sprintf("%02x%02x%012x", pass, lane, n) }

// tracedContext attaches the batch's trace ID when tracing.
func tracedContext(rec *recorder, id string) context.Context {
	if !rec.on.Load() {
		return context.Background()
	}
	return obs.WithTrace(context.Background(), id)
}

// hopSplit breaks each traced batch into the wire hops: client minus router
// handler (transport and client codec), router handler minus its node
// handlers (routing, key derivation, fan-out), and the node handlers'
// covered time. It returns the medians in milliseconds.
func hopSplit(spans []span) (transport, routerSelf, nodes float64) {
	type hops struct {
		client, router *span
		nodes          [][2]int64
	}
	by := map[string]*hops{}
	get := func(b string) *hops {
		h := by[b]
		if h == nil {
			h = &hops{}
			by[b] = h
		}
		return h
	}
	for i := range spans {
		s := &spans[i]
		if s.Batch == "" {
			continue
		}
		switch s.Name {
		case "client.Simulate":
			get(s.Batch).client = s
		case tierRouter + "/v1/simulate":
			get(s.Batch).router = s
		default:
			if len(s.Name) > len(tierNode) && s.Name[:len(tierNode)+1] == tierNode+"/" {
				get(s.Batch).nodes = append(get(s.Batch).nodes, [2]int64{s.Start, s.End})
			}
		}
	}
	var tr, rs, nd []float64
	for _, h := range by {
		if h.client == nil || h.router == nil {
			continue
		}
		cov := float64(unionLength(h.nodes)) / 1e6
		tr = append(tr, float64((h.client.End-h.client.Start)-(h.router.End-h.router.Start))/1e6)
		rs = append(rs, float64(h.router.End-h.router.Start)/1e6-cov)
		nd = append(nd, cov)
	}
	return median(tr), median(rs), median(nd)
}

// ledger is the fleet's counters at one instant: the router's aggregate
// plus the per-node store bytes.
type ledger struct {
	router     service.Statusz
	storeBytes int64
	nodeCands  uint64
}

func readLedger(ctx context.Context, f *fleet) (ledger, error) {
	var l ledger
	st, err := service.NewClient(f.url).Statusz(ctx)
	if err != nil {
		return l, fmt.Errorf("router statusz: %w", err)
	}
	l.router = *st
	nodes, err := f.nodeStatusz(ctx)
	if err != nil {
		return l, err
	}
	for _, n := range nodes {
		l.storeBytes += n.StoreTotalBytes
		l.nodeCands += n.Candidates
	}
	return l, nil
}

// reconcile checks the statusz invariants every serve run must keep.
func (l ledger) reconcile(o *outcome, label string) {
	st := l.router
	o.check(st.CacheHits+st.CacheMisses+st.CacheCanceled == st.Candidates,
		"%s: statusz hits %d + misses %d + canceled %d != candidates %d", label, st.CacheHits, st.CacheMisses, st.CacheCanceled, st.Candidates)
	o.check(l.nodeCands == st.Candidates, "%s: nodes served %d candidates, router routed %d", label, l.nodeCands, st.Candidates)
	for _, n := range st.Nodes {
		o.check(n.Up, "%s: node %s is down: %s", label, n.ID, n.LastErr)
	}
}

// buildProgram lowers one candidate for arch through runner.LocalBuilder,
// the builder the tuner and the nodes use.
func buildProgram(arch isa.Arch, spec service.WorkloadSpec, steps []schedule.Step) (*lower.Program, error) {
	factory, err := spec.Factory()
	if err != nil {
		return nil, err
	}
	b := runner.LocalBuilder{Arch: arch}.Build([]runner.MeasureInput{{Factory: factory, Steps: steps}})[0]
	return b.Prog, b.Err
}

// simLayer times sim.Run on the given candidates' programs, the same
// programs a node simulated, and returns the simulated instructions and the
// nanoseconds sim.Run took.
func simLayer(spec service.WorkloadSpec, steps [][]schedule.Step) (instr uint64, ns int64, err error) {
	caches := hw.Lookup(serveArch).Caches
	for _, st := range steps {
		prog, err := buildProgram(serveArch, spec, st)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		stats, err := sim.Run(prog, caches)
		ns += int64(time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		instr += stats.Total
	}
	return instr, ns, nil
}

// referenceStats simulates one candidate in-process.
func referenceStats(spec service.WorkloadSpec, steps []schedule.Step) (*sim.Stats, error) {
	prog, err := buildProgram(serveArch, spec, steps)
	if err != nil {
		return nil, err
	}
	return sim.Run(prog, hw.Lookup(serveArch).Caches)
}

// keyMicros times service.CacheKey over the candidates, the derivation
// both tiers perform once per candidate, and returns µs per key.
func keyMicros(pools []*pool) float64 {
	caches := hw.Lookup(serveArch).Caches
	n := 0
	sw := startWatch()
	for sw.seconds() < 0.2 {
		for _, p := range pools {
			for _, st := range p.steps {
				_ = service.CacheKey(serveArch, caches, p.spec, st)
				n++
			}
		}
	}
	return sw.seconds() * 1e6 / float64(n)
}

func writeSpans(cfg *config, rec *recorder, workload string) error {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	cfg.logf("spans written to %s", path)
	return nil
}
