package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the layer's public function or handler.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: root span of a lane
	Batch  string `json:"batch,omitempty"`  // shared by every span of one batch
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory while on; they are written out when the
// run ends. With it off, begin/end cost one atomic load.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span; the returned function closes and records it. A nil
// recorder or one that is off records nothing and returns ID 0.
func (r *recorder) begin(name string, parent int64, batch string, lane int) (int64, func()) {
	if r == nil || !r.on.Load() {
		return 0, func() {}
	}
	s := span{ID: r.nextID.Add(1), Parent: parent, Batch: batch, Lane: lane, Name: name, Start: r.now()}
	return s.ID, func() {
		s.End = r.now()
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// attribution splits the lanes' wall time between span names. Within one
// root span's tree every instant goes to the deepest spans open at that
// instant, split evenly when several run concurrently (a router's parallel
// node calls, a runner's parallel simulations), so a name's self time is its
// duration minus what its children cover. Lane time no root span covers is
// the unattributed residual. By construction
//
//	Σ self + unattributed = lanes × wall.
type attribution struct {
	self         map[string]float64 // seconds per span name
	total        map[string]float64 // summed durations per span name
	count        map[string]int
	unattributed float64 // seconds
	laneWall     float64 // lanes × wall, seconds
}

// attribute analyses spans recorded between from and to (recorder ns) on
// the given number of lanes.
func attribute(spans []span, lanes int, from, to int64) attribution {
	a := attribution{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{}}
	a.laneWall = float64(lanes) * float64(to-from) / 1e9
	children := map[int64][]*span{}
	var roots []*span
	for i := range spans {
		s := &spans[i]
		a.total[s.Name] += float64(s.End-s.Start) / 1e9
		a.count[s.Name]++
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	covered := make([][][2]int64, lanes)
	for _, root := range roots {
		lo, hi := clip(root.Start, root.End, from, to)
		if hi <= lo {
			continue
		}
		if root.Lane >= 0 && root.Lane < lanes {
			covered[root.Lane] = append(covered[root.Lane], [2]int64{lo, hi})
		}
		attributeTree(root, children, lo, hi, a.self)
	}
	var coveredNS int64
	for _, iv := range covered {
		coveredNS += unionLength(iv)
	}
	a.unattributed = a.laneWall - float64(coveredNS)/1e9
	return a
}

func clip(s, e, from, to int64) (int64, int64) {
	if s < from {
		s = from
	}
	if e > to {
		e = to
	}
	return s, e
}

// attributeTree credits [lo, hi) of root's tree to the deepest open spans.
func attributeTree(root *span, children map[int64][]*span, lo, hi int64, self map[string]float64) {
	type node struct {
		s     *span
		depth int
	}
	tree := []node{{root, 0}}
	for i := 0; i < len(tree); i++ {
		for _, c := range children[tree[i].s.ID] {
			tree = append(tree, node{c, tree[i].depth + 1})
		}
	}
	cuts := []int64{lo, hi}
	for _, n := range tree[1:] {
		for _, t := range []int64{n.s.Start, n.s.End} {
			if t > lo && t < hi {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var deepest []*span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		best := -1
		deepest = deepest[:0]
		for _, n := range tree {
			if n.s.Start <= a && n.s.End >= b {
				switch {
				case n.depth > best:
					best = n.depth
					deepest = append(deepest[:0], n.s)
				case n.depth == best:
					deepest = append(deepest, n.s)
				}
			}
		}
		share := float64(b-a) / 1e9 / float64(len(deepest))
		for _, s := range deepest {
			self[s.Name] += share
		}
	}
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// print writes the self-time table and checks the accounting identity.
func (a attribution) print(cfg *config, o *outcome) {
	names := make([]string, 0, len(a.self))
	var sum float64
	for n, v := range a.self {
		names = append(names, n)
		sum += v
	}
	sort.Strings(names)
	cfg.logf("trace: %-28s %8s %10s %10s %6s", "span", "calls", "total s", "self s", "share")
	for _, n := range names {
		cfg.logf("trace: %-28s %8d %10.4f %10.4f %5.1f%%", n, a.count[n], a.total[n], a.self[n], 100*a.self[n]/a.laneWall)
	}
	cfg.logf("trace: %-28s %8s %10s %10.4f %5.1f%%", "(unattributed)", "", "", a.unattributed, 100*a.unattributed/a.laneWall)
	cfg.logf("trace: self %.4f s + unattributed %.4f s = %.4f s; lanes x wall = %.4f s", sum, a.unattributed, sum+a.unattributed, a.laneWall)
	diff := sum + a.unattributed - a.laneWall
	o.check(diff < 1e-6*a.laneWall+1e-6 && diff > -1e-6*a.laneWall-1e-6,
		"trace accounting: self + unattributed = %.6f s, lanes x wall = %.6f s", sum+a.unattributed, a.laneWall)
	o.layer("trace.unattributed_share", a.unattributed/a.laneWall)
}
