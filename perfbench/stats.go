package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/schedule"
	"repro/internal/sim"
)

// derive turns the run seed into an independent sub-seed per purpose, so
// every generated input is a pure function of (seed, label, index).
func derive(seed uint64, label string, i int) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s/%d", seed, label, i)))
	return binary.LittleEndian.Uint64(h[:8])
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// procStats are the process counters read around a timed phase.
type procStats struct {
	mallocs uint64
	pauseNS uint64
	cpuS    float64 // user + system CPU seconds
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := procStats{mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		snap.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return snap
}

// digest is a sha256 over candidates' canonical steps and statistics.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add folds one candidate in. The host-time field is blanked: everything
// else in sim.Stats is a deterministic function of the candidate.
func (d *digest) add(steps []schedule.Step, st *sim.Stats) {
	d.h.Write(schedule.Canonical(steps))
	if st == nil {
		d.h.Write([]byte("nil"))
		return
	}
	c := *st
	c.SimWallSeconds = 0
	b, _ := json.Marshal(&c) // a struct of numbers, strings and slices cannot fail
	d.h.Write(b)
}

func (d *digest) write(parts ...any) { fmt.Fprintln(d.h, parts...) }

func (d *digest) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// sameStats compares two statistics records, ignoring host wall time.
func sameStats(a, b *sim.Stats) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.SimWallSeconds, y.SimWallSeconds = 0, 0
	xb, _ := json.Marshal(&x)
	yb, _ := json.Marshal(&y)
	return string(xb) == string(yb)
}

// stopwatch measures elapsed seconds from a fixed start.
type stopwatch time.Time

func startWatch() stopwatch { return stopwatch(time.Now()) }

func (s stopwatch) seconds() float64 { return time.Since(time.Time(s)).Seconds() }

// simCounts sums the deterministic simulator counters over candidates.
type simCounts struct {
	instr, events     uint64
	maxEventsPerInstr float64
	l1dMiss, l1dAcc   uint64
	l2Miss, l2Acc     uint64
}

func (c *simCounts) add(st *sim.Stats) {
	if st == nil || st.Total == 0 {
		return
	}
	c.instr += st.Total
	c.events += st.SinkEvents
	if r := float64(st.SinkEvents) / float64(st.Total); r > c.maxEventsPerInstr {
		c.maxEventsPerInstr = r
	}
	if l, ok := st.Cache("L1D"); ok {
		c.l1dMiss += l.Misses[0] + l.Misses[1]
		c.l1dAcc += l.Accesses()
	}
	if l, ok := st.Cache("L2"); ok {
		c.l2Miss += l.Misses[0] + l.Misses[1]
		c.l2Acc += l.Accesses()
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report writes the simulator and cache-model layer metrics.
func (c *simCounts) report(o *outcome) {
	o.layer("sim.events_per_instr", ratio(c.events, c.instr))
	o.layer("sim.events_per_instr_max", c.maxEventsPerInstr)
	o.layer("cache.l1d_miss_ratio", ratio(c.l1dMiss, c.l1dAcc))
	o.layer("cache.l2_miss_ratio", ratio(c.l2Miss, c.l2Acc))
}
