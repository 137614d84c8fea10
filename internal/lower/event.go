// Package lower compiles a scheduled tensor kernel into an executable
// loop-nest Program for one target ISA — the analogue of TVM's lowering plus
// LLVM code generation in the paper's flow. Executing a Program produces the
// instruction/memory event stream that one sink consumes: the
// instruction-accurate simulator (internal/sim), which counts instruction
// classes, drives the Table I cache hierarchy and plays the role of gem5 in
// atomic mode. The timing model (internal/hw), which plays the role of the
// real target hardware, is that simulator plus an overlay that turns its
// cache misses and instruction counts into cycles; it needs no stream of
// its own.
//
// The lowering reproduces the mechanisms that make different schedules of
// one kernel behave differently on hardware: loop tiling changes locality,
// unrolling removes branch overhead but grows the code footprint (L1I),
// vectorization turns contiguous scalar loads/FMAs into SIMD ones, invariant
// loads are hoisted out of inner loops, register-tile accumulators that
// exceed the architectural register file spill to the stack, and split tails
// or padding emit guard instructions.
//
// # Event protocol
//
// The executor→sink protocol is block-aggregated: instead of materializing
// one event per executed instruction, Execute streams only the events that
// carry per-event state, and delivers everything else as arithmetic
// aggregates. A Sink receives three channels:
//
//   - Consume(events): the ordered event stream. It contains EvData events
//     (one per load/store, with the data address and width) and EvFetch
//     events (one per instruction-fetch line crossing, emitted exactly where
//     a per-instruction walk would have fetched a new L1I line). Order is
//     significant — data accesses and fetch misses share the L2 — and is
//     bit-identical to the per-instruction stream's cache access order.
//   - ConsumeLoop(run): a uniform box — Planes × Rows × Count iterations
//     whose guard outcomes, padding checks and spill status the executor
//     has proven constant — shipped as one message of strided access
//     sites. The executor's walker builds boxes from any loop level of the
//     reduction subtree: a range of that level's iterations together with
//     the whole nest below it, whose levels of extent > 1 (at most three)
//     become Count, Rows and Planes, innermost first. The sink replays the
//     accesses in interleaved iteration order, which is exactly the order
//     the box's per-event stream would have had. ConsumeLoop calls are
//     ordered relative to Consume batches.
//   - ConsumeCounts(counts): bulk per-class instruction counts plus flagged-
//     branch tallies (loop exits, guard branches) aggregated over the whole
//     execution. These quantities are order-independent: they feed the
//     simulator's counters, from which the timing overlay derives issue
//     cycles and mispredict penalties at the end of the run, so aggregating
//     them loses no information.
//
// Uniform non-memory instruction bursts (the bodyFLOPs FMA runs, accumulator
// init blocks, preheader ALU padding) are folded by the executor into single
// count updates with fetch line crossings computed from the PC span in
// O(lines) instead of O(instructions).
//
// ExecutePerInstruction emits the legacy encoding — one EvInstr event per
// executed instruction, with sinks modelling the I-fetch themselves and no
// ConsumeCounts call. Both encodings produce bit-identical statistics (see
// TestBlockAggregationBitIdentical); the aggregated one is several times
// faster and is what every production path uses.
package lower

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// Event flags.
const (
	// FlagLoopExit marks the final (fall-through) branch of a loop, the
	// natural branch-misprediction point of counted loops.
	FlagLoopExit uint8 = 1 << iota
	// FlagGuard marks a guard-check branch (split tails, padding).
	FlagGuard
)

// Kind discriminates the event stream entries of the protocol.
type Kind uint8

const (
	// EvInstr is one executed instruction in the legacy per-instruction
	// encoding: sinks count its class, model its fetch at line granularity,
	// perform its data access (loads/stores) and inspect its flags. The zero
	// value, so hand-built event slices default to it.
	EvInstr Kind = iota
	// EvFetch is an instruction-fetch line crossing: PC holds the 64 B line
	// address to fetch. The executor tracks the current fetch line itself and
	// emits EvFetch exactly where the per-instruction walk would have changed
	// lines, so sinks just perform the access.
	EvFetch
	// EvData is a data access (Class, Addr, Size) whose instruction fetch and
	// class count have already been delivered through EvFetch/ConsumeCounts.
	EvData
)

// Event is one entry of the ordered event stream. In the legacy encoding
// every executed instruction is an EvInstr event; in the block-aggregated
// encoding only fetch line crossings and data accesses appear.
type Event struct {
	// PC is the instruction address (EvInstr, EvData) or the fetched line
	// address (EvFetch).
	PC uint64
	// Addr is the data address for loads/stores (0 otherwise).
	Addr uint64
	// Size is the data-access width in bytes (0 for non-memory ops).
	Size uint16
	// Class is the instruction class.
	Class isa.Class
	// Flags carries branch metadata (EvInstr only).
	Flags uint8
	// Kind discriminates the protocol entry.
	Kind Kind
}

// Counts aggregates the order-independent quantities of one execution:
// per-class instruction counts and flagged-branch tallies.
type Counts struct {
	// ByClass counts executed instructions per class (memory classes
	// included — their EvData events carry only the cache access).
	ByClass [isa.NumClasses]uint64
	// LoopExits counts branches flagged FlagLoopExit.
	LoopExits uint64
	// GuardBranches counts branches flagged FlagGuard.
	GuardBranches uint64
}

// LoopSite is one strided data access of a LoopRun: the address at the
// first iteration plus per-iteration, per-row and per-plane deltas. It is
// the cache package's RunSite so sinks can hand the sites straight to
// cache.Hierarchy.DataRun without copying.
type LoopSite = cache.RunSite

// LoopRun describes a uniform box: Planes × Rows × Count iterations that
// each access the Sites in order, with every site's address advancing by
// Step per iteration, RowStep per row and PlaneStep per plane.
// Replaying `for k in [0,Planes): for j in [0,Rows): for i in [0,Count):
// for s in Sites: access(s.Addr + k*s.PlaneStep + j*s.RowStep + i*s.Step)`
// is bit-identical to the interleaved per-event stream the box would
// otherwise emit — the executor proves uniformity (guards, padding checks
// and spill status constant across the box) before emitting one. The three
// dimensions are the box's loop levels of extent > 1, innermost first;
// unused ones have extent 1. The struct is only valid during the
// ConsumeLoop call.
type LoopRun struct {
	Count  int
	Rows   int
	Planes int
	Sites  []LoopSite
}

// Sink consumes one program execution: the ordered event stream through
// Consume (batches are only valid during the call; implementations must not
// retain the slice), uniform inner-loop spans through ConsumeLoop (ordered
// relative to Consume batches), and the bulk aggregates through
// ConsumeCounts (called once per Execute, at the end; never called by
// ExecutePerInstruction).
type Sink interface {
	Consume(events []Event)
	ConsumeLoop(run *LoopRun)
	ConsumeCounts(counts *Counts)
}

// CountingSink tallies events by class; used in tests and quick estimates.
type CountingSink struct {
	ByClass [isa.NumClasses]uint64
	Total   uint64
	Loads   uint64
	Stores  uint64
	// LoopExits/GuardBranches tally flagged branches (aggregated encoding
	// and legacy EvInstr events alike).
	LoopExits     uint64
	GuardBranches uint64
	// Events counts protocol events received, a diagnostic for the
	// aggregation ratio (events per instruction).
	Events uint64
}

// Consume implements Sink.
func (c *CountingSink) Consume(events []Event) {
	c.Events += uint64(len(events))
	for i := range events {
		e := &events[i]
		if e.Kind != EvInstr {
			continue // counted through ConsumeCounts
		}
		c.ByClass[e.Class]++
		c.Total++
		if e.Class.IsLoad() {
			c.Loads++
		}
		if e.Class.IsStore() {
			c.Stores++
		}
		if e.Flags&FlagLoopExit != 0 {
			c.LoopExits++
		}
		if e.Flags&FlagGuard != 0 {
			c.GuardBranches++
		}
	}
}

// ConsumeLoop implements Sink (instruction classes of a span arrive through
// ConsumeCounts; the span itself counts as one protocol event).
func (c *CountingSink) ConsumeLoop(run *LoopRun) {
	c.Events++
}

// ConsumeCounts implements Sink.
func (c *CountingSink) ConsumeCounts(counts *Counts) {
	for cl, n := range counts.ByClass {
		c.ByClass[cl] += n
		c.Total += n
		if isa.Class(cl).IsLoad() {
			c.Loads += n
		}
		if isa.Class(cl).IsStore() {
			c.Stores += n
		}
	}
	c.LoopExits += counts.LoopExits
	c.GuardBranches += counts.GuardBranches
}

// batchSize is the executor's event-buffer length. 1024 events (24 KiB)
// keep the producer/consumer hand-off within the host L1/L2 while still
// amortizing the sink's interface dispatch.
const batchSize = 1024

// emitter buffers events and flushes them to a sink in batches.
type emitter struct {
	sink Sink
	buf  []Event
}

func newEmitter(sink Sink) *emitter {
	return &emitter{sink: sink, buf: make([]Event, 0, batchSize)}
}

func (e *emitter) emit(ev Event) {
	e.buf = append(e.buf, ev)
	if len(e.buf) == batchSize {
		e.flush()
	}
}

//go:noinline
func (e *emitter) flush() {
	if len(e.buf) > 0 {
		e.sink.Consume(e.buf)
		e.buf = e.buf[:0]
	}
}
