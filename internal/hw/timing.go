package hw

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/lower"
	"repro/internal/sim"
)

// Machine is the cycle-approximate timing model of one target CPU: the
// instruction-accurate simulator of the same Table I hierarchy plus a
// timing overlay. The embedded sim.Machine is the lower.Sink — it counts
// instructions, replays every access and yields Stats — and the overlay
// adds what the IA simulator cannot see, so that reference times are a
// richer function of the instruction stream than the IA statistics (the
// learning problem of the paper):
//
//   - per-class issue costs (wide OoO x86 retires more per cycle than the
//     dual-issue in-order U74),
//   - cache-miss latencies damped by an out-of-order/MLP overlap factor,
//   - a stream prefetcher that hides most of the latency of unit-stride
//     misses (aggressive on x86, nearly absent on the U74),
//   - branch-mispredict penalties on loop exits and periodically on guard
//     branches.
//
// Cycle accounting is split by order sensitivity so the block-aggregated
// event encoding stays bit-identical to the per-instruction one: issue costs
// and mispredict penalties are pure functions of the simulator's
// instruction/branch counts and are summed arithmetically in Cycles(), while
// cache-miss latencies — whose floating-point accumulation order matters —
// are added by the simulator's miss observer in access-stream order, which
// both encodings replay identically.
type Machine struct {
	*sim.Machine
	Prof Profile

	// latencyCycles accumulates cache-miss latencies in stream order.
	latencyCycles float64

	// streams maps a 4 KiB page to the last missed line address within it,
	// implementing a unit-stride stream detector.
	streams map[uint64]uint64
}

// maxStreamPages bounds the stream detector's page table, as real
// prefetchers bound theirs.
const maxStreamPages = 4096

// NewMachine builds the timing model for a profile.
func NewMachine(prof Profile) (*Machine, error) {
	s, err := sim.New(prof.Arch, prof.Caches)
	if err != nil {
		return nil, err
	}
	m := &Machine{Machine: s, Prof: prof, streams: make(map[uint64]uint64, 64)}
	s.ObserveMisses(m.miss)
	return m, nil
}

// miss charges the latency of one access served below L1 (depth > 1).
// Instruction fetches pay the MLP-damped latency; data misses are further
// damped by the stream prefetcher and, for stores, by the write buffers.
func (m *Machine) miss(addr uint64, kind, depth int) {
	t := &m.Prof.Timing
	lat := t.Latency[depth]
	if kind != cache.KindFetch {
		if m.streamHit(addr) {
			lat *= 1 - t.PrefetchEff
		}
		// Store misses are mostly hidden by write buffers; charge a quarter
		// of the load penalty.
		if kind == cache.KindWrite {
			lat *= 0.25
		}
	}
	m.latencyCycles += lat * (1 - t.MLPOverlap)
}

// streamHit updates the unit-stride detector and reports whether the missed
// line continues a detected stream (and would have been prefetched). A new
// page arriving at a full table flushes the whole table, so which pages the
// detector remembers is a pure function of the miss stream.
func (m *Machine) streamHit(addr uint64) bool {
	page := addr >> 12
	line := addr >> 6
	last, ok := m.streams[page]
	if !ok && len(m.streams) == maxStreamPages {
		clear(m.streams)
	}
	m.streams[page] = line
	return ok && (line == last+1 || line == last)
}

// mispredicts derives the modelled mispredict count: every loop exit plus
// every GuardMispredictEvery-th guard branch.
func (m *Machine) mispredicts(c lower.Counts) uint64 {
	n := c.LoopExits
	if every := m.Prof.Timing.GuardMispredictEvery; every > 0 {
		n += c.GuardBranches / every
	}
	return n
}

// Cycles returns the accumulated cycle count: per-class issue costs,
// cache-miss latencies and branch-mispredict penalties.
func (m *Machine) Cycles() float64 {
	t := &m.Prof.Timing
	c := m.Counts()
	cycles := m.latencyCycles
	for cl, n := range c.ByClass {
		if n > 0 {
			cycles += float64(n) * t.IssueCost[cl]
		}
	}
	return cycles + float64(m.mispredicts(c))*t.MispredictPenalty
}

// Mispredicts returns the modelled branch mispredictions.
func (m *Machine) Mispredicts() uint64 { return m.mispredicts(m.Counts()) }

// Seconds converts cycles to wall time at the profile's clock and adds the
// fixed per-run call overhead.
func (m *Machine) Seconds() float64 {
	return m.Cycles()/(m.Prof.FreqGHz*1e9) + m.Prof.Timing.CallOverheadSec
}

// Reset clears the simulator (counters and caches) and the overlay's
// cycles and prefetcher state for a fresh run.
func (m *Machine) Reset() {
	m.Machine.Reset()
	m.latencyCycles = 0
	clear(m.streams)
}

// machinePools holds per-profile free lists of reset timing machines, so
// per-candidate measurement re-uses cache hierarchies instead of allocating
// a fresh one per run (Profile is comparable: arrays and flat structs only).
var machinePools sync.Map // Profile -> *sync.Pool

// AcquireMachine returns a reset timing machine for the profile, re-using a
// pooled instance when one is available. ReleaseMachine it after reading
// Cycles()/Seconds().
func AcquireMachine(prof Profile) (*Machine, error) {
	if p, ok := machinePools.Load(prof); ok {
		if m, _ := p.(*sync.Pool).Get().(*Machine); m != nil {
			return m, nil
		}
	}
	return NewMachine(prof)
}

// ReleaseMachine resets a machine and returns it to its profile's pool.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	m.Reset()
	p, _ := machinePools.LoadOrStore(m.Prof, &sync.Pool{})
	p.(*sync.Pool).Put(m)
}
