package service

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/te"
)

// flakyBackend's replication surface, so routed fleets in tests can hand
// off through the same wrapper that injects node faults. handoffTripped
// fails only Keys/Fetch/Ingest — the "statusz answers but the node is not
// ready for replication" shape.
func (f *flakyBackend) Keys(ctx context.Context) ([]Key, error) {
	if f.tripped.Load() || f.handoffTripped.Load() {
		return nil, &Error{Status: 503, Msg: "injected node fault"}
	}
	return f.Backend.(HandoffBackend).Keys(ctx)
}

func (f *flakyBackend) Fetch(ctx context.Context, keys []Key) ([]Entry, error) {
	if f.tripped.Load() {
		return nil, &Error{Status: 503, Msg: "injected node fault"}
	}
	return f.Backend.(HandoffBackend).Fetch(ctx, keys)
}

func (f *flakyBackend) Ingest(ctx context.Context, entries []Entry) (int, error) {
	if f.tripped.Load() {
		return 0, &Error{Status: 503, Msg: "injected node fault"}
	}
	return f.Backend.(HandoffBackend).Ingest(ctx, entries)
}

// TestHandoffEndpointsHTTP exercises the /v1/keys + /v1/fetch + /v1/ingest
// triple over a live HTTP hop: inventory, bulk read, and
// idempotent install on a second node — after which the second node serves
// the transferred corpus as cache hits without ever simulating.
func TestHandoffEndpointsHTTP(t *testing.T) {
	const group, n = 2, 8
	src := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	hsSrc := httptest.NewServer(src.Handler())
	defer hsSrc.Close()
	srcCl := NewClient(hsSrc.URL)

	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	cold, err := srcCl.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	keys, err := srcCl.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("inventory lists %d keys, want %d", len(keys), n)
	}

	entries, err := srcCl.Fetch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("fetch returned %d entries for %d keys", len(entries), n)
	}

	dst := mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
	hsDst := httptest.NewServer(dst.Handler())
	defer hsDst.Close()
	dstCl := NewClient(hsDst.URL)
	got, err := dstCl.Ingest(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("ingested %d entries, want %d", got, n)
	}
	// Ingest is idempotent: replaying the same entries installs nothing.
	if again, err := dstCl.Ingest(ctx, entries); err != nil || again != 0 {
		t.Fatalf("re-ingest installed %d entries (err %v), want 0", again, err)
	}

	warm, err := dstCl.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed on the ingest-warmed node", i)
		}
		if !reflect.DeepEqual(normalized(res.Stats), normalized(cold.Results[i].Stats)) {
			t.Fatalf("candidate %d: handed-off stats diverge", i)
		}
	}
	st, _ := dst.Statusz(ctx)
	if st.HandoffKeys != n {
		t.Fatalf("handoff_keys = %d, want %d", st.HandoffKeys, n)
	}
	if st.Shards[0].Simulated != 0 {
		t.Fatalf("warmed node simulated %d candidates", st.Shards[0].Simulated)
	}
	// Handoff never enters the candidate accounting: the warmed node served
	// n candidates, all hits, and ingest added nothing to hits/misses.
	if st.CacheHits+st.CacheMisses+st.CacheCanceled != st.Candidates {
		t.Fatalf("ingest broke the statusz reconciliation: %+v", st)
	}
}

// TestRingRejoinHandoffZeroDuplicateSimulation is the acceptance path of
// warm handoff: a node is down while the fleet computes a corpus (its key
// range drains to ring successors), then rejoins. The router must replay
// the keys the node owns into it before it re-enters rotation, so the
// re-submitted run is fully cache-absorbed and the fleet's total
// simulation count does not grow — rejoin causes zero duplicate
// simulations.
func TestRingRejoinHandoffZeroDuplicateSimulation(t *testing.T) {
	const group, n = 1, 24
	servers := make([]*Server, 3)
	ids := make([]string, 3)
	flaky := make([]*flakyBackend, 3)
	backends := make([]Backend, 3)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		flaky[i] = &flakyBackend{Backend: servers[i]}
		backends[i] = flaky[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	// How many of the batch's keys node 0 owns on the ring (deterministic:
	// candidates, ring ids and the hash are all fixed).
	caches := hw.Lookup(isa.RISCV).Caches
	owned := 0
	for _, c := range req.Candidates {
		if rt.ring.owner(CacheKey(isa.RISCV, caches, req.Workload, c.Steps)) == 0 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("degenerate ring split: node 0 owns none of the batch; grow n")
	}

	// Node 0 is down before anything is computed: its range drains to the
	// successors, which simulate and cache its keys.
	flaky[0].tripped.Store(true)
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("tripped node still in rotation")
	}
	cold, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fleetSimulated := func() (total uint64) {
		for _, s := range servers {
			total += s.shards[isa.RISCV].simulated.Load()
		}
		return
	}
	if got := fleetSimulated(); got != n {
		t.Fatalf("cold run simulated %d, want %d", got, n)
	}

	// Rejoin: the probe must replay node 0's owned keys from the survivors
	// before returning it to rotation.
	flaky[0].tripped.Store(false)
	rt.probeOnce(context.Background())
	if !rt.nodes[0].up.Load() {
		t.Fatal("recovered node did not rejoin")
	}
	if got := servers[0].cache.len(); got != owned {
		t.Fatalf("handoff replayed %d keys into the rejoined node, want %d (its ring share)", got, owned)
	}
	if got := rt.handoffKeys.Load(); got != uint64(owned) {
		t.Fatalf("router handoff_keys = %d, want %d", got, owned)
	}
	st0, _ := servers[0].Statusz(context.Background())
	if st0.HandoffKeys != uint64(owned) {
		t.Fatalf("rejoined node handoff_keys = %d, want %d", st0.HandoffKeys, owned)
	}

	// Re-submission: fully absorbed, bit-identical, and the fleet's
	// simulation count has not moved — zero duplicate simulation on rejoin.
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed after rejoin — its key was not handed off", i)
		}
		if !reflect.DeepEqual(normalized(res.Stats), normalized(cold.Results[i].Stats)) {
			t.Fatalf("candidate %d: stats diverge across the handoff", i)
		}
	}
	if got := fleetSimulated(); got != n {
		t.Fatalf("fleet simulated %d after rejoin, want %d — handoff caused duplicate simulation", got, n)
	}
	// The rejoined node actually served its share from the replayed corpus.
	st0, _ = servers[0].Statusz(context.Background())
	if st0.CacheHits != uint64(owned) || st0.CacheMisses != 0 {
		t.Fatalf("rejoined node served %d hits / %d misses, want %d / 0",
			st0.CacheHits, st0.CacheMisses, owned)
	}
	// Fleet-wide statusz reconciliation, handoff counters included.
	agg, err := rt.Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses, canceled, served uint64
	for _, s := range servers {
		st, _ := s.Statusz(context.Background())
		hits += st.CacheHits
		misses += st.CacheMisses
		canceled += st.CacheCanceled
		served += st.Candidates
	}
	if hits+misses+canceled != served {
		t.Fatalf("fleet candidate accounting broken: %d+%d+%d != %d", hits, misses, canceled, served)
	}
	if agg.CacheHits != hits || agg.CacheMisses != misses {
		t.Fatalf("router statusz (%d/%d) disagrees with node sums (%d/%d)",
			agg.CacheHits, agg.CacheMisses, hits, misses)
	}
	if agg.HandoffKeys != uint64(owned) {
		t.Fatalf("aggregated handoff_keys = %d, want %d", agg.HandoffKeys, owned)
	}
}

// TestRejoinWithDurableStoreReplaysOnlyTheGap: a node that recovers its
// corpus from its own -cache-dir receives only the keys computed while it
// was down — handoff respects what the node already holds.
func TestRejoinWithDurableStoreReplaysOnlyTheGap(t *testing.T) {
	const group = 1
	dir := t.TempDir()
	cfg0 := Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2, CacheDir: dir}

	// First lifetime of node 0: the fleet computes a first batch, node 0
	// caching (and persisting) its share.
	servers := make([]*Server, 3)
	ids := []string{"node-a", "node-b", "node-c"}
	flaky := make([]*flakyBackend, 3)
	backends := make([]Backend, 3)
	build := func() {
		for i := range servers {
			c := Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2}
			if i == 0 {
				c = cfg0
			}
			servers[i] = mustServer(t, c)
			flaky[i] = &flakyBackend{Backend: servers[i]}
			backends[i] = flaky[i]
		}
	}
	build()
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	all := tinyCandidates(t, group, 32)
	reqA := &SimulateRequest{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleTiny, group), Candidates: all[:16]}
	reqB := &SimulateRequest{Arch: "riscv", Workload: ConvGroupSpec(te.ScaleTiny, group), Candidates: all[16:]}
	if _, err := rt.Simulate(context.Background(), reqA); err != nil {
		t.Fatal(err)
	}
	persisted := servers[0].cache.len() // node 0's share of batch A

	// Node 0 dies (process gone, disk survives); batch B lands on the
	// survivors.
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	flaky[0].tripped.Store(true)
	rt.probeOnce(context.Background())
	if _, err := rt.Simulate(context.Background(), reqB); err != nil {
		t.Fatal(err)
	}

	// Node 0 restarts over its cache-dir and rejoins.
	restarted := mustServer(t, cfg0)
	defer restarted.Close()
	servers[0] = restarted
	flaky[0].Backend = restarted
	flaky[0].tripped.Store(false)
	rt.probeOnce(context.Background())
	if !rt.nodes[0].up.Load() {
		t.Fatal("restarted node did not rejoin")
	}

	// Handoff must have replayed only batch-B keys node 0 owns — not the
	// batch-A corpus it recovered from disk.
	caches := hw.Lookup(isa.RISCV).Caches
	gap := 0
	for _, c := range reqB.Candidates {
		if rt.ring.owner(CacheKey(isa.RISCV, caches, reqB.Workload, c.Steps)) == 0 {
			gap++
		}
	}
	st0, _ := restarted.Statusz(context.Background())
	if st0.HandoffKeys != uint64(gap) {
		t.Fatalf("handoff replayed %d keys, want only the %d-key gap (disk corpus: %d)",
			st0.HandoffKeys, gap, persisted)
	}
	if st0.CacheDiskEntries < persisted {
		t.Fatalf("restart lost disk entries: %d < %d", st0.CacheDiskEntries, persisted)
	}

	// Both batches are now fully absorbed, with no simulation anywhere.
	before := servers[1].shards[isa.RISCV].simulated.Load() +
		servers[2].shards[isa.RISCV].simulated.Load() +
		restarted.shards[isa.RISCV].simulated.Load()
	for _, req := range []*SimulateRequest{reqA, reqB} {
		resp, err := rt.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range resp.Results {
			if !res.CacheHit {
				t.Fatalf("candidate %d missed after rejoin-with-disk", i)
			}
		}
	}
	after := servers[1].shards[isa.RISCV].simulated.Load() +
		servers[2].shards[isa.RISCV].simulated.Load() +
		restarted.shards[isa.RISCV].simulated.Load()
	if before != after {
		t.Fatalf("rejoin-with-disk caused %d duplicate simulations", after-before)
	}
}

// TestFailedHandoffKeepsNodeOutOfRotation pins the retry semantics: a node
// whose statusz answers but whose replication surface fails must NOT
// re-enter rotation unwarmed — it stays down and a later probe round (with
// the replication surface healthy) completes the replay and restores it.
func TestFailedHandoffKeepsNodeOutOfRotation(t *testing.T) {
	const group, n = 1, 24
	servers := make([]*Server, 3)
	ids := make([]string, 3)
	flaky := make([]*flakyBackend, 3)
	backends := make([]Backend, 3)
	for i := range servers {
		servers[i] = mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 2})
		ids[i] = "node-" + string(rune('a'+i))
		flaky[i] = &flakyBackend{Backend: servers[i]}
		backends[i] = flaky[i]
	}
	rt, err := NewRouterBackends(ids, backends, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := &SimulateRequest{
		Arch:       "riscv",
		Workload:   ConvGroupSpec(te.ScaleTiny, group),
		Candidates: tinyCandidates(t, group, n),
	}
	flaky[0].tripped.Store(true)
	rt.probeOnce(context.Background())
	if _, err := rt.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// The node recovers statusz but its replication surface still fails:
	// rotation must wait for a successful replay.
	flaky[0].tripped.Store(false)
	flaky[0].handoffTripped.Store(true)
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("node with a failed handoff re-entered rotation unwarmed")
	}

	flaky[0].handoffTripped.Store(false)
	rt.probeOnce(context.Background())
	if !rt.nodes[0].up.Load() {
		t.Fatal("node did not rejoin once the replay could complete")
	}
	if servers[0].cache.len() == 0 {
		t.Fatal("retried replay moved no keys")
	}
	// And the rejoin still costs zero duplicate simulation.
	warm, err := rt.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range warm.Results {
		if !res.CacheHit {
			t.Fatalf("candidate %d missed after retried rejoin", i)
		}
	}
	var total uint64
	for _, s := range servers {
		total += s.shards[isa.RISCV].simulated.Load()
	}
	if total != n {
		t.Fatalf("fleet simulated %d, want %d", total, n)
	}
}

// legacyBackend simulates a pre-handoff node behind a Client: statusz and
// simulate work, but the replication endpoints answer 404 (non-retryable).
type legacyBackend struct{ Backend }

func (legacyBackend) Keys(context.Context) ([]Key, error) {
	return nil, &Error{Status: 404, Msg: "404 page not found"}
}
func (legacyBackend) Fetch(context.Context, []Key) ([]Entry, error) {
	return nil, &Error{Status: 404, Msg: "404 page not found"}
}
func (legacyBackend) Ingest(context.Context, []Entry) (int, error) {
	return 0, &Error{Status: 404, Msg: "404 page not found"}
}

// TestRejoinWithoutHandoffSurfaceStillRejoins pins the rolling-upgrade
// case: a recovered node whose backend lacks the replication endpoints
// (404, non-retryable) must rejoin unwarmed rather than being retried to
// the same answer forever and locked out of rotation.
func TestRejoinWithoutHandoffSurfaceStillRejoins(t *testing.T) {
	servers := []*Server{
		mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1}),
		mustServer(t, Config{Archs: []isa.Arch{isa.RISCV}, WorkersPerArch: 1}),
	}
	flaky := &flakyBackend{Backend: legacyBackend{servers[0]}}
	rt, err := NewRouterBackends([]string{"legacy", "modern"},
		[]Backend{flaky, servers[1]}, RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	flaky.tripped.Store(true)
	rt.probeOnce(context.Background())
	if rt.nodes[0].up.Load() {
		t.Fatal("tripped node still in rotation")
	}
	flaky.tripped.Store(false)
	rt.probeOnce(context.Background())
	if !rt.nodes[0].up.Load() {
		t.Fatal("node without a handoff surface was locked out of rotation")
	}
	if got := rt.handoffKeys.Load(); got != 0 {
		t.Fatalf("replayed %d keys through a 404 surface", got)
	}
}
