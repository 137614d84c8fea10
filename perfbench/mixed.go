package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/num"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/te"
)

// serve-mixed-open: independent tenants whose batches arrive on a seeded
// Poisson schedule at a fixed offered rate (open loop), at most nproc in
// flight. Each batch of 16 targets one of the five Table II groups at tiny
// scale and mixes repeats of a primed corpus with a fixed share of
// never-seen candidates, against nodes with durable stores and a resident
// bound well below the corpus, behind a router with replication factor 2.
// Misses therefore simulate, insert, evict, append to the store and write
// through to a replica beside the reads.

const (
	// mixedRate is the offered load in batches/s, well below the knee of
	// the fleet on a 2-CPU host (see README.md): near the knee, a host
	// slowdown of a third doubled the median latency.
	mixedRate     = 25.0
	mixedFresh    = 2 // never-seen candidates per batch of 16
	mixedGroups   = 5
	mixedResident = 24 // MaxResidentResults per node
	mixedRF       = 2
	// mixedMaxLateMS bounds the p99 of the generator's lateness, the time
	// from a batch's due time to its dispatch to a free client. Below the
	// knee it stayed under 16 ms at up to 45 batches/s on a 2-CPU host; a
	// fleet past its knee queues batches for seconds, and the offered rate
	// is not met.
	mixedMaxLateMS = 200.0
)

type mixedSizes struct{ setups, corpusPerGroup int }

func mixedSizesFor(short bool) mixedSizes {
	if short {
		return mixedSizes{setups: 1, corpusPerGroup: 8}
	}
	return mixedSizes{setups: 5, corpusPerGroup: 32}
}

// mixedBatch is one scheduled request.
type mixedBatch struct {
	due   time.Duration // since the pass start
	group int
	idx   []int  // into the group's corpus, or fresh pool when fresh[i]
	fresh []bool // candidate i is never seen before
}

// arrivals is one pass's arrivals and its never-seen candidates.
type arrivals struct {
	batches []mixedBatch
	fresh   []*pool // per group
}

// makeSchedule draws a pass's Poisson arrivals over seconds at rate, the
// group and corpus picks of every batch, and the fresh candidates, none of
// which is in seen (updated).
func makeSchedule(seed uint64, pass int, rate, seconds float64, corpus []*pool, seen map[string]bool) (*arrivals, error) {
	rng := num.NewRNG(derive(seed, "mixed/schedule", pass))
	s := &arrivals{}
	freshN := make([]int, mixedGroups)
	// A Poisson process conditioned on exactly n arrivals in the phase: the
	// normalized partial sums of n+1 exponential gaps, so every seed offers
	// the same load.
	n := int(math.Round(rate * seconds))
	at := make([]float64, n+1)
	sum := 0.0
	for i := range at {
		sum += -math.Log(1 - rng.Float64())
		at[i] = sum
	}
	for i := 0; i < n; i++ {
		t := seconds * at[i] / sum
		b := mixedBatch{due: time.Duration(t * float64(time.Second)), group: rng.Intn(mixedGroups)}
		for i := 0; i < serveBatch; i++ {
			b.fresh = append(b.fresh, false)
			b.idx = append(b.idx, rng.Intn(len(corpus[b.group].steps)))
		}
		for _, i := range rng.Perm(serveBatch)[:mixedFresh] {
			b.fresh[i] = true
			b.idx[i] = freshN[b.group]
			freshN[b.group]++
		}
		s.batches = append(s.batches, b)
	}
	for g := 0; g < mixedGroups; g++ {
		p, err := drawPool(corpus[g].spec, freshN[g], derive(seed, fmt.Sprintf("mixed/fresh/%d", pass), g), seen)
		if err != nil {
			return nil, err
		}
		s.fresh = append(s.fresh, p)
	}
	return s, nil
}

func (s *arrivals) hash(d *digest) {
	for _, b := range s.batches {
		d.write(int64(b.due), b.group, b.idx, b.fresh)
	}
	for _, p := range s.fresh {
		for _, k := range p.keys {
			d.write(k)
		}
	}
}

func (s *arrivals) request(b *mixedBatch, corpus []*pool) *service.SimulateRequest {
	req := &service.SimulateRequest{Arch: string(serveArch), Workload: corpus[b.group].spec}
	for i, j := range b.idx {
		src := corpus[b.group]
		if b.fresh[i] {
			src = s.fresh[b.group]
		}
		req.Candidates = append(req.Candidates, service.Candidate{Steps: src.steps[j]})
	}
	return req
}

func runMixed(cfg *config) (*outcome, error) {
	o := newOutcome()
	sz := mixedSizesFor(cfg.short)
	ctx := context.Background()
	seen := map[string]bool{}
	var corpus []*pool
	for g := 0; g < mixedGroups; g++ {
		p, err := drawPool(service.ConvGroupSpec(te.ScaleTiny, g), sz.corpusPerGroup, derive(cfg.seed, "mixed/corpus", g), seen)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, p)
	}
	passes := 1
	if cfg.trace {
		passes = len(passLabels)
	}
	var scheds []*arrivals
	in := newDigest()
	in.write("mixed", sz.corpusPerGroup, mixedRate, mixedFresh, nproc())
	for _, p := range corpus {
		for _, k := range p.keys {
			in.write(k)
		}
	}
	for pass := 0; pass < passes; pass++ {
		s, err := makeSchedule(cfg.seed, pass, mixedRate, cfg.seconds, corpus, seen)
		if err != nil {
			return nil, err
		}
		s.hash(in)
		scheds = append(scheds, s)
	}
	cfg.logf("input hash %s (seed %d, %.0f batches/s offered, %d batches in pass 0)", in.hex(), cfg.seed, mixedRate, len(scheds[0].batches))

	rec := newRecorder()
	tap := newTap(rec)
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	f, expected, setupS, err := setUpFleets(ctx, cfg, o, sz.setups, func(k int) (*fleet, error) {
		dir, err := storeRoot(cfg, "mixed", k)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		return startFleet(fleetNodes, func(i int) service.Config {
			return service.Config{
				WorkersPerArch: nproc(), MaxResidentResults: mixedResident,
				CacheDir: filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			}
		}, service.RouterConfig{ReplicationFactor: mixedRF}, tap)
	}, corpus)
	if err != nil {
		return nil, err
	}
	defer f.close()

	keys := uint64(mixedGroups * sz.corpusPerGroup)
	plain, err := mixedPass(ctx, cfg, o, f, tap, corpus, expected, scheds[0], 0, &keys)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = plain.cands, plain.failed
	plain.endToEnd(cfg, o, setupS, serveChunks, serveTailQ)
	if !cfg.trace {
		return o, nil
	}
	traced, again, err := tracePasses(o, rec, func(n int) (*phase, error) {
		r, err := mixedPass(ctx, cfg, o, f, tap, corpus, expected, scheds[n], n, &keys)
		if err != nil {
			return nil, err
		}
		return &r.phase, nil
	})
	if err != nil {
		return nil, err
	}
	serveLayers(cfg, o, tap, append(append([]*pool(nil), corpus...), scheds[0].fresh...), &plain.phase, traced,
		overhead(plain.meanMS(), traced.meanMS(), again.meanMS()))
	o.layer("service.node_miss_batch_ms", tap.nodeMiss.median())
	o.layer("service.miss_ratio", plain.missRatio)
	o.layer("service.disk_hit_ratio", plain.diskHitRatio)
	o.layer("service.evictions", float64(plain.evictions))
	o.layer("store.bytes_per_miss", plain.bytesPerMiss)
	o.layer("service.reject_ratio", plain.rejectRatio)
	o.layer("gen.late_p99_ms", plain.lateP99)
	o.layer("gen.inflight_max", float64(plain.outstandingMax))
	plain.counts.report(o)
	ips, err := simLayerFresh(scheds[0])
	if err != nil {
		return nil, err
	}
	o.layer("sim.instr_per_s", ips)
	cfg.logf("node sub-batch p50 with a miss %.3f ms", tap.nodeMiss.median())
	return o, writeSpans(cfg, rec, "serve-mixed-open")
}

// simLayerFresh times sim.Run on up to 64 of the pass's fresh candidates.
func simLayerFresh(s *arrivals) (float64, error) {
	var instr uint64
	var ns int64
	for _, p := range s.fresh {
		i, n, err := simLayer(p.spec, p.steps[:min(len(p.steps), 64/mixedGroups)])
		if err != nil {
			return 0, err
		}
		instr += i
		ns += n
	}
	if ns == 0 {
		return 0, nil
	}
	return float64(instr) / (float64(ns) / 1e9), nil
}

// mixedResult extends a serve pass with the open-loop and fleet figures.
type mixedResult struct {
	phase
	lateP99        float64
	outstandingMax int
	missRatio      float64
	diskHitRatio   float64
	evictions      uint64
	bytesPerMiss   float64
	rejectRatio    float64
	counts         simCounts
}

// mixedPass plays one schedule open loop and checks every reply and the
// fleet ledger. keys counts the distinct keys the fleet holds so far.
func mixedPass(ctx context.Context, cfg *config, o *outcome, f *fleet, tap *tap, corpus []*pool,
	expected [][]*sim.Stats, s *arrivals, pass int, keys *uint64) (*mixedResult, error) {
	before, err := readLedger(ctx, f)
	if err != nil {
		return nil, err
	}
	lanes := nproc()
	rec := tap.rec
	res := &mixedResult{phase: phase{open: true}}
	results := make([]*service.SimulateResponse, len(s.batches))
	lat := make([]float64, len(s.batches))
	doneAt := make([]float64, len(s.batches))
	late := make([]float64, len(s.batches))
	errs := make([]error, len(s.batches))
	work := make(chan int)
	if rec.on.Load() {
		res.from = rec.now()
	}
	res.procBefore = readProcStats()
	mem := startMemSampler()
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cl := service.NewClient(f.url)
			for {
				// An open-loop lane waits for its next batch; the wait is
				// spanned so it is not mistaken for unexplained time.
				_, endIdle := rec.begin("gen.idle", 0, "", lane)
				bi, ok := <-work
				endIdle()
				if !ok {
					return
				}
				b := &s.batches[bi]
				req := s.request(b, corpus)
				due := start.Add(b.due)
				late[bi] = float64(time.Since(due)) / 1e6
				id := batchID(pass, lane, bi)
				sid, end := rec.begin("client.Simulate", 0, id, lane)
				forget := tap.clientSpan(id, sid)
				results[bi], errs[bi] = cl.Simulate(tracedContext(rec, id), req)
				lat[bi] = float64(time.Since(due)) / 1e6
				doneAt[bi] = time.Since(start).Seconds()
				end()
				forget()
			}
		}(lane)
	}
	for bi := range s.batches {
		if d := time.Until(start.Add(s.batches[bi].due)); d > 0 {
			time.Sleep(d)
		}
		work <- bi
	}
	close(work)
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	res.memMB = mem.median()
	res.procAfter = readProcStats()
	if rec.on.Load() {
		res.to = rec.now()
	}
	label := passLabels[pass]

	// Check every reply: repeats are the primed hit, fresh candidates are
	// misses, a seeded sample of which must match an in-process simulation.
	var wrong []string
	bad := 0
	fresh := 0
	pick := num.NewRNG(derive(cfg.seed, "mixed/refcheck", pass))
	refChecks := 0
	for bi := range s.batches {
		b := &s.batches[bi]
		res.cands += serveBatch
		smp := sample{at: doneAt[bi], ms: lat[bi]}
		res.samples = append(res.samples, smp)
		if errs[bi] != nil {
			bad++
			res.failed += serveBatch
			if len(wrong) < 5 {
				wrong = append(wrong, errs[bi].Error())
			}
			continue
		}
		for i, r := range results[bi].Results {
			ok := r.Err == "" && r.Stats != nil
			switch {
			case !ok:
			case b.fresh[i]:
				fresh++
				ok = !r.CacheHit
				res.counts.add(r.Stats)
				if ok && pick.Intn(len(s.batches)) < 4 {
					ref, err := referenceStats(s.fresh[b.group].spec, s.fresh[b.group].steps[b.idx[i]])
					ok = err == nil && sameStats(ref, r.Stats)
					refChecks++
				}
			default:
				ok = r.CacheHit && reflect.DeepEqual(r.Stats, expected[b.group][b.idx[i]])
			}
			if !ok {
				res.failed++
				if len(wrong) < 5 {
					wrong = append(wrong, fmt.Sprintf("batch %d candidate %d (fresh %v): hit %v err %q", bi, i, b.fresh[i], r.CacheHit, r.Err))
				}
				continue
			}
			smp.cands++
			smp.instr += r.Stats.Total
		}
		res.samples[len(res.samples)-1] = smp
	}
	res.lateP99 = quantile(late, 0.99)
	due := make([]float64, len(s.batches))
	for bi := range s.batches {
		due[bi] = s.batches[bi].due.Seconds()
	}
	res.outstandingMax = outstandingMax(due, doneAt)
	res.log(cfg, label)
	cfg.logf("%s: generator lateness p99 %.3f ms, at most %d batches due and unanswered (%d clients); %d fresh candidates, %d checked against in-process simulation",
		label, res.lateP99, res.outstandingMax, lanes, fresh, refChecks)
	o.check(bad == 0, "%s: %d batches failed", label, bad)
	o.check(len(wrong) == 0, "%s: wrong results, first: %v", label, wrong)
	o.check(res.lateP99 <= mixedMaxLateMS, "%s: generator lateness p99 %.1f ms exceeds %.0f ms: the offered rate was not met",
		label, res.lateP99, mixedMaxLateMS)

	after, err := readLedger(ctx, f)
	if err != nil {
		return nil, err
	}
	after.reconcile(o, label)
	sent := uint64(len(s.batches) * mixedFresh)
	*keys += sent
	st, bst := after.router, before.router
	dMiss := st.CacheMisses - bst.CacheMisses
	dHits := st.CacheHits - bst.CacheHits
	dCands := st.Candidates - bst.Candidates
	o.check(dCands == uint64(res.cands), "%s: router counted %d candidates, clients sent %d", label, dCands, res.cands)
	o.check(dMiss == sent, "%s: nodes simulated %d candidates for %d distinct fresh ones", label, dMiss, sent)
	o.check(st.CacheDiskEntries == mixedRF*int(*keys), "%s: %d stored copies for %d keys at RF %d", label, st.CacheDiskEntries, *keys, mixedRF)
	o.check(st.ReplicaKeys == (mixedRF-1)*(*keys), "%s: router replicated %d keys, want %d", label, st.ReplicaKeys, (mixedRF-1)*(*keys))
	res.missRatio = ratio(dMiss, dCands)
	res.diskHitRatio = ratio(st.CacheDiskHits-bst.CacheDiskHits, dHits)
	res.evictions = st.CacheEvictions - bst.CacheEvictions
	res.rejectRatio = ratio(st.RejectedCandidates-bst.RejectedCandidates, uint64(res.cands))
	if dMiss > 0 {
		res.bytesPerMiss = float64(after.storeBytes-before.storeBytes) / float64(dMiss)
	}
	cfg.logf("%s: miss ratio %.3f, disk-hit ratio %.3f, %d evictions, %.0f store bytes per miss",
		label, res.missRatio, res.diskHitRatio, res.evictions, res.bytesPerMiss)
	return res, nil
}

// outstandingMax is the largest number of batches that were due and not yet
// answered at once: the generator's demand on the fleet, which exceeds the
// client count only when batches queue for a free client.
func outstandingMax(due, done []float64) int {
	type event struct {
		at    float64
		delta int
	}
	ev := make([]event, 0, 2*len(due))
	for i := range due {
		ev = append(ev, event{due[i], 1}, event{done[i], -1})
	}
	// At equal instants, answers are counted before arrivals.
	sort.Slice(ev, func(i, j int) bool {
		return ev[i].at < ev[j].at || ev[i].at == ev[j].at && ev[i].delta < ev[j].delta
	})
	n, peak := 0, 0
	for _, e := range ev {
		n += e.delta
		peak = max(peak, n)
	}
	return peak
}
