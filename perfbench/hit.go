package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/num"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/te"
)

// serve-hit-http: nproc tuner clients in a closed loop, each waiting for
// its reply, send batches of 16 drawn from a primed corpus of tuner-shaped
// candidates (small-scale conv, RISC-V) to a router in front of three nodes
// over real loopback HTTP. Every candidate is a cache hit, so key
// derivation, the JSON codec, the router and the transport do all the work
// and the simulator none.

const (
	hitGroup = 3
	// serveChunks is how many equal chunks a serve phase is cut into; the
	// median over chunks is reported.
	serveChunks = 5
)

type hitSizes struct{ setups, corpus int }

func hitSizesFor(short bool) hitSizes {
	if short {
		return hitSizes{setups: 1, corpus: 16}
	}
	return hitSizes{setups: 5, corpus: 48}
}

func runHit(cfg *config) (*outcome, error) {
	o := newOutcome()
	sz := hitSizesFor(cfg.short)
	ctx := context.Background()
	corpus, err := drawPool(service.ConvGroupSpec(te.ScaleSmall, hitGroup), sz.corpus, derive(cfg.seed, "hit/corpus", 0), map[string]bool{})
	if err != nil {
		return nil, err
	}
	in := newDigest()
	in.write("hit", sz.corpus, nproc())
	for _, k := range corpus.keys {
		in.write(k)
	}
	cfg.logf("input hash %s (seed %d)", in.hex(), cfg.seed)

	rec := newRecorder()
	tap := newTap(rec)
	f, expected, setupS, err := setUpFleets(ctx, cfg, o, sz.setups, func(int) (*fleet, error) {
		return startFleet(fleetNodes, func(int) service.Config {
			return service.Config{WorkersPerArch: nproc()}
		}, service.RouterConfig{}, tap)
	}, []*pool{corpus})
	if err != nil {
		return nil, err
	}
	defer f.close()

	pass := func(n int) (*phase, error) { return hitPass(ctx, cfg, o, f, tap, corpus, expected[0], n) }
	plain, err := pass(0)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = plain.cands, plain.failed
	plain.endToEnd(cfg, o, setupS, serveChunks, serveTailQ)
	if !cfg.trace {
		return o, nil
	}
	traced, again, err := tracePasses(o, rec, pass)
	if err != nil {
		return nil, err
	}
	serveLayers(cfg, o, tap, []*pool{corpus}, plain, traced,
		overhead(plain.secPerCand(), traced.secPerCand(), again.secPerCand()))
	return o, writeSpans(cfg, rec, "serve-hit-http")
}

// hitPass runs the closed loop for cfg.seconds and checks every reply.
func hitPass(ctx context.Context, cfg *config, o *outcome, f *fleet, tap *tap, corpus *pool, expected []*sim.Stats, pass int) (*phase, error) {
	before, err := readLedger(ctx, f)
	if err != nil {
		return nil, err
	}
	lanes := nproc()
	res := &phase{}
	var mu sync.Mutex
	var bad atomic.Int64
	var wrong []string
	rec := tap.rec
	if rec.on.Load() {
		res.from = rec.now()
	}
	res.procBefore = readProcStats()
	mem := startMemSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cl := service.NewClient(f.url)
			rng := num.NewRNG(derive(cfg.seed, fmt.Sprintf("hit/lane/%d", pass), lane))
			idx := make([]int, serveBatch)
			var samples []sample
			var failed int64
			for n := 0; time.Now().Before(deadline); n++ {
				for i := range idx {
					idx[i] = rng.Intn(len(corpus.steps))
				}
				req := corpus.request(idx)
				id := batchID(pass, lane, n)
				sid, end := rec.begin("client.Simulate", 0, id, lane)
				forget := tap.clientSpan(id, sid)
				t0 := time.Now()
				resp, err := cl.Simulate(tracedContext(rec, id), req)
				smp := sample{ms: float64(time.Since(t0)) / 1e6, at: time.Since(start).Seconds()}
				end()
				forget()
				if err != nil {
					failed += serveBatch
					bad.Add(1)
					samples = append(samples, smp)
					continue
				}
				_, endV := rec.begin("bench.verify", 0, id, lane)
				for j, r := range resp.Results {
					if r.Err != "" || !r.CacheHit || !reflect.DeepEqual(r.Stats, expected[idx[j]]) {
						failed++
						mu.Lock()
						if len(wrong) < 5 {
							wrong = append(wrong, fmt.Sprintf("corpus %d: hit %v err %q", idx[j], r.CacheHit, r.Err))
						}
						mu.Unlock()
						continue
					}
					smp.cands++
					smp.instr += r.Stats.Total
				}
				endV()
				samples = append(samples, smp)
			}
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.cands += int64(len(samples)) * serveBatch
			res.failed += failed
			mu.Unlock()
		}(lane)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	res.memMB = mem.median()
	res.procAfter = readProcStats()
	if rec.on.Load() {
		res.to = rec.now()
	}
	label := passLabels[pass]
	res.log(cfg, label)
	o.check(bad.Load() == 0, "%s: %d batches failed", label, bad.Load())
	o.check(len(wrong) == 0, "%s: results are not the primed hit, first: %v", label, wrong)

	after, err := readLedger(ctx, f)
	if err != nil {
		return nil, err
	}
	after.reconcile(o, label)
	dc := after.router.Candidates - before.router.Candidates
	o.check(dc == uint64(res.cands), "%s: router counted %d candidates, clients sent %d", label, dc, res.cands)
	o.check(after.router.CacheHits-before.router.CacheHits == dc && after.router.CacheMisses == before.router.CacheMisses,
		"%s: %d hits and %d misses for %d candidates, want all hits", label,
		after.router.CacheHits-before.router.CacheHits, after.router.CacheMisses-before.router.CacheMisses, dc)
	return res, nil
}
