package lower

import (
	"repro/internal/isa"
	"repro/internal/te"
	"repro/internal/tensor"
)

// Execute runs the lowered program once, streaming the block-aggregated
// event encoding to sink: EvData events for loads/stores, EvFetch events for
// instruction-line crossings, and one ConsumeCounts call with the bulk
// per-class instruction counts (see the package comment for the protocol).
// When computeValues is set the program also performs the real float32
// arithmetic (allocating tensors as needed) so the result can be validated
// against te.ComputeOp.ReferenceEval; with it off, only addresses and
// instruction classes are produced, which is what the simulators need and is
// considerably faster.
func Execute(p *Program, sink Sink, computeValues bool) {
	execute(p, sink, computeValues, false)
}

// ExecutePerInstruction runs the lowered program once in the legacy
// per-instruction encoding: one EvInstr event per executed instruction and
// no ConsumeCounts call. It is the reference encoding the block-aggregated
// one is differentially tested against; production paths use Execute.
func ExecutePerInstruction(p *Program, sink Sink, computeValues bool) {
	execute(p, sink, computeValues, true)
}

func execute(p *Program, sink Sink, computeValues, perInstr bool) {
	c := &execCtx{
		p:        p,
		em:       newEmitter(sink),
		vals:     make([]int, len(p.levels)),
		compute:  computeValues,
		perInstr: perInstr,
		lastLine: noLine,
		ib:       uint64(p.Model.InstBytes),
	}
	if nl := len(p.levels); !computeValues && !perInstr && p.reduceStart < nl && !p.levels[nl-1].Vector {
		// Walker scratch per level of the reduction subtree: its affine
		// vector, cut list and verdicts (one per inner guard, body load and
		// the spill condition), plus a zero step row.
		nv := len(p.affines)
		nc := len(p.levels[nl-1].Guards) + len(p.bodyLoads) + 1
		back := make([]int, (nl-p.reduceStart)*(nv+4*nc+2)+nv)
		verdicts := make([]verdict, (nl-p.reduceStart)*nc)
		c.rows = make([]walkRow, nl)
		for l := p.reduceStart; l < nl; l++ {
			r := &c.rows[l]
			r.cur, back = back[:nv], back[nv:]
			r.cuts, back = back[:0:4*nc+2], back[4*nc+2:]
			r.verdicts, verdicts = verdicts[:nc], verdicts[nc:]
		}
		c.zero = back
	}
	if computeValues {
		p.Op.Out.Alloc()
		for _, in := range p.Op.Inputs {
			in.Alloc()
		}
		c.acc = make([]float32, p.tileCount)
		c.axisVals = make([]int, p.numAxes)
	}

	// Preheader: argument/address setup plus fully loop-invariant loads.
	c.pc = p.codeBase
	c.run(isa.ALU, 8)
	for _, site := range p.preheader {
		c.scalarLoad(site)
	}

	switch {
	case len(p.levels) == 0:
		// Degenerate rank-0 kernel: single body+store.
		c.scalarBody()
	case p.reduceStart == 0:
		c.initBlock(p.codeBase + p.preheaderSize)
		c.runLevel(0, p.codeBase+p.levels[0].BlockOff)
		c.storeLoop(p.codeBase + p.preheaderSize + p.initSize + c.blockSize(0))
	default:
		c.runLevel(0, p.codeBase+p.levels[0].BlockOff)
	}
	c.em.flush()
	if !perInstr {
		sink.ConsumeCounts(&c.counts)
	}
}

// noLine is the "no fetch line yet" sentinel; real line addresses are 64 B
// aligned, so it never collides.
const noLine = ^uint64(0)

type execCtx struct {
	p        *Program
	em       *emitter
	vals     []int
	axisVals []int
	acc      []float32
	compute  bool
	perInstr bool
	counts   Counts
	lastLine uint64
	pc       uint64
	ib       uint64

	// Walker scratch (nil when the walker is off): per level, the affine
	// vector at iteration 0 of the level's current run, its cut list and
	// verdicts; zero is an all-zero step row.
	rows    []walkRow
	zero    []int
	loopRun LoopRun
}

// walkRow is one level's walker scratch.
type walkRow struct {
	cur, cuts []int
	verdicts  []verdict
}

// fetchLine emits an EvFetch event when the current PC has crossed onto a
// new instruction line (aggregated encoding only).
func (c *execCtx) fetchLine() {
	if line := c.pc &^ 63; line != c.lastLine {
		c.em.emit(Event{Kind: EvFetch, PC: line})
		c.lastLine = line
	}
}

// inst emits one non-memory instruction at the current PC.
func (c *execCtx) inst(class isa.Class, flags uint8) {
	if c.perInstr {
		c.em.emit(Event{PC: c.pc, Class: class, Flags: flags})
		c.pc += c.ib
		return
	}
	c.counts.ByClass[class]++
	if flags != 0 {
		if flags&FlagLoopExit != 0 {
			c.counts.LoopExits++
		}
		if flags&FlagGuard != 0 {
			c.counts.GuardBranches++
		}
	}
	c.fetchLine()
	c.pc += c.ib
}

// run emits a uniform burst of n non-memory instructions of one class
// starting at the current PC — one bulk count update plus the fetch-line
// crossings of the PC span in O(lines) instead of O(n). Instruction strides
// are below the 64 B line size (InstBytes is 3–4), so stepping the line by
// 64 visits every crossed line.
func (c *execCtx) run(class isa.Class, n int) {
	if n <= 0 {
		return
	}
	if c.perInstr {
		for i := 0; i < n; i++ {
			c.inst(class, 0)
		}
		return
	}
	c.counts.ByClass[class] += uint64(n)
	c.fetchSpan(n)
	c.pc += uint64(n) * c.ib
}

// mem emits one memory instruction at the current PC.
func (c *execCtx) mem(class isa.Class, addr uint64, size uint16) {
	if c.perInstr {
		c.em.emit(Event{PC: c.pc, Class: class, Addr: addr, Size: size})
		c.pc += c.ib
		return
	}
	c.counts.ByClass[class]++
	c.fetchLine()
	c.em.emit(Event{Kind: EvData, PC: c.pc, Addr: addr, Size: size, Class: class})
	c.pc += c.ib
}

// hoist evaluates the walker's affine vector (Program.affines) at
// iteration 0 of level e and of every level below it, reading rather than
// clobbering the deeper levels' values: those keep their last values, which
// guard and hoisted-load evaluations see, as on the generic path.
func (c *execCtx) hoist(e int) {
	cur := c.rows[e].cur
	for j, a := range c.p.affines {
		v := a.Const
		for _, t := range a.Terms {
			if t.Level < e {
				v += t.Coef * c.vals[t.Level]
			}
		}
		cur[j] = v
	}
}

// walk executes every iteration of level d of the reduction subtree in
// statistics-only mode, with rows[d].cur holding the affine vector at the
// level's iteration 0. A Box level whose iteration block lies on one I-line
// is cut into pieces over which every guard, padding and spill condition of
// the nest below holds throughout, fails throughout or is mixed: uniform
// pieces ship as boxes, mixed ones run per iteration. Other levels run per
// iteration, the innermost one through runInnerIter. The emitted stream is
// bit-identical to the generic path (TestBlockAggregationBitIdentical).
func (c *execCtx) walk(d int, blockBase uint64) {
	lv := c.p.levels[d]
	if !lv.Box || blockBase&^63 != (blockBase+lv.PerIterSize-1)&^63 {
		if d == len(c.p.levels)-1 {
			c.runInnerIter(d, lv, blockBase)
		} else {
			c.runIters(d, blockBase, 0, lv.Extent)
		}
		return
	}
	cuts := c.cutPoints(d)
	for ci := 0; ci+1 < len(cuts); ci++ {
		if a, b := cuts[ci], cuts[ci+1]; a < b && !c.box(d, blockBase, a, b) {
			c.runIters(d, blockBase, a, b)
		}
	}
}

// verdict is one condition over the iterations [0,ext) of a level, with the
// nest below at full range: it holds throughout on [h0,h1), fails
// throughout on [0,f0) and [f1,ext), and is mixed elsewhere.
type verdict struct{ h0, h1, f0, f1 int }

// fail widens the fail-throughout set by [a,b), which the linear* helpers
// return as a prefix or a suffix of [0,ext).
func (v *verdict) fail(a, b int) {
	if a == 0 {
		v.f0 = max(v.f0, b)
	} else {
		v.f1 = min(v.f1, a)
	}
}

// at classifies iteration a.
func (v *verdict) at(a int) (holds, fails bool) {
	return v.h0 <= a && a < v.h1, a < v.f0 || a >= v.f1
}

// cutPoints fills level d's verdicts — guard gi at gi, body load si after
// the guards, spill last — and returns [0,Extent) cut, sorted, at every
// verdict boundary, so that each piece between cuts is uniform or mixed as
// a whole. Conditions that never change add no cuts: the common uniform
// case is one sort-free piece.
func (c *execCtx) cutPoints(d int) []int {
	p := c.p
	lv := p.levels[d]
	ext := lv.Extent
	row := &c.rows[d]
	v, s, lo, hi := row.cur, lv.Step, lv.DeepMin, lv.DeepMax
	k := cutter{cuts: append(row.cuts[:0], 0, ext), ext: ext}
	guards := p.levels[len(p.levels)-1].Guards
	for gi, g := range guards {
		vd := &row.verdicts[gi]
		vd.h0, vd.h1 = linearBelow(v[gi]+hi[gi], s[gi], g.Extent, ext)
		vd.f0, vd.f1 = 0, ext
		vd.fail(linearAtLeast(v[gi]+lo[gi], s[gi], g.Extent, ext))
		k.add(vd)
	}
	for si, site := range p.bodyLoads {
		if !site.CanOOB {
			continue
		}
		// Loaded where every dimension is in bounds, padded where some
		// dimension is out of bounds.
		vd := &row.verdicts[len(guards)+si]
		*vd = verdict{0, ext, 0, ext}
		for dim, shape := range site.Tensor.Shape {
			j := p.dimAt[si] + dim
			if s[j] == 0 {
				if v[j]+lo[j] < 0 || v[j]+hi[j] >= shape {
					vd.h1 = 0
				}
				if v[j]+hi[j] < 0 || v[j]+lo[j] >= shape {
					vd.f0 = ext
				}
				continue
			}
			a, b := linearAtLeast(v[j]+lo[j], s[j], 0, ext)
			vd.h0, vd.h1 = max(vd.h0, a), min(vd.h1, b)
			a, b = linearBelow(v[j]+hi[j], s[j], shape, ext)
			vd.h0, vd.h1 = max(vd.h0, a), min(vd.h1, b)
			vd.fail(linearBelow(v[j]+hi[j], s[j], 0, ext))
			vd.fail(linearAtLeast(v[j]+lo[j], s[j], shape, ext))
		}
		k.add(vd)
	}
	if p.spillRegs > 0 {
		t := len(v) - 1
		vd := &row.verdicts[len(row.verdicts)-1]
		vd.h0, vd.h1 = linearAtLeast(v[t]+lo[t], s[t], p.spillFrom, ext)
		vd.f0, vd.f1 = 0, ext
		vd.fail(linearBelow(v[t]+hi[t], s[t], p.spillFrom, ext))
		k.add(vd)
	}
	cuts := k.cuts
	row.cuts = cuts
	if len(cuts) > 2 {
		// Insertion sort: the cut list is tiny and mostly sorted.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
	}
	return cuts
}

// cutter collects the interior cut points of [0,ext).
type cutter struct {
	cuts []int
	ext  int
}

// add cuts at the boundaries of a verdict's hold and fail sets.
func (k *cutter) add(v *verdict) {
	k.cut(v.h0, v.h1)
	k.cut(v.f0, v.f1)
}

// cut cuts at both ends of the interval [lo,hi); empty intervals add none.
func (k *cutter) cut(lo, hi int) {
	if lo >= hi {
		return
	}
	if lo > 0 {
		k.cuts = append(k.cuts, lo)
	}
	if hi < k.ext {
		k.cuts = append(k.cuts, hi)
	}
}

// box executes iterations [a,b) of level d together with the whole nest
// below them as one uniform box: bulk counts plus at most one LoopRun whose
// Count, Rows and Planes are the box's levels of extent > 1, innermost
// first (a Box level has at most two such levels below it). Levels of
// extent 1 contribute only their loop overhead. It reports false, having
// emitted nothing, when a condition is mixed over the box.
func (c *execCtx) box(d int, blockBase uint64, a, b int) bool {
	p := c.p
	nl := len(p.levels)
	lv := p.levels[d]
	row := &c.rows[d]
	// LoopRun axes, innermost first, by their levels' step tables.
	axes := [3][]int{c.zero, c.zero, c.zero}
	axN := [3]int{1, 1, 1}
	nax := 0
	for l := nl - 1; l >= d; l-- {
		n := p.levels[l].Extent
		if l == d {
			n = b - a
		}
		if n > 1 {
			axes[nax], axN[nax] = p.levels[l].Step, n
			nax++
		}
	}
	// Per innermost iteration: guard pairs up to the first failing guard,
	// then — when none fails — padding-check pairs, loads, spill traffic and
	// the FMA burst.
	guards := p.levels[nl-1].Guards
	ng := uint64(len(guards))
	failed := false
	for gi := range guards {
		holds, fails := row.verdicts[gi].at(a)
		if holds {
			continue
		}
		if !fails {
			return false
		}
		ng, failed = uint64(gi+1), true
		break
	}
	sites := c.loopRun.Sites[:0]
	var canOOB, loaded, spill, flops uint64
	if !failed {
		elem := len(guards)
		for si, site := range p.bodyLoads {
			if site.CanOOB {
				canOOB++
				holds, fails := row.verdicts[elem+si].at(a)
				if fails {
					continue // padding: the load is skipped across the box
				}
				if !holds {
					c.loopRun.Sites = sites
					return false
				}
			}
			loaded++
			j := elem + si
			sites = append(sites, boxSite(site.Tensor.AddrOf(row.cur[j]+a*lv.Step[j]), j, &axes, false))
		}
		if p.spillRegs > 0 {
			holds, fails := row.verdicts[len(row.verdicts)-1].at(a)
			if !holds && !fails {
				c.loopRun.Sites = sites
				return false
			}
			if holds {
				// Stream order within an iteration: body loads, spill
				// reload, FMA burst (no data), spill writeback.
				t := len(row.cur) - 1
				slot := p.stackBase + uint64(row.cur[t]+a*lv.Step[t])*tensor.ElemSize
				sites = append(sites, boxSite(slot, t, &axes, false), boxSite(slot, t, &axes, true))
				spill = 1
			}
		}
		flops = uint64(p.bodyFLOPs)
	}
	// One fetch covers the box: every PC lies on blockBase's line.
	c.pc = blockBase
	c.fetchLine()
	// Loop overhead: one ALU+branch pair per iteration of every box level;
	// each level below d exits once per run, d itself on its last iteration.
	var iters, over, exits uint64 = 1, 0, 0
	innerBase := blockBase
	for l := d; l < nl; l++ {
		n := p.levels[l].Extent
		if l == d {
			n = b - a
		} else {
			innerBase += p.levels[l].BlockOff
			exits += iters
		}
		iters *= uint64(n)
		over += iters
		c.vals[l] = n - 1 // as the per-iteration loops leave them
	}
	c.vals[d] = b - 1
	if b == lv.Extent {
		exits++
	}
	checks := iters * (ng + canOOB)
	c.counts.ByClass[isa.ALU] += checks + over
	c.counts.ByClass[isa.Branch] += checks + over
	c.counts.ByClass[isa.FMA] += iters * flops
	c.counts.ByClass[isa.Load] += iters * (loaded + spill)
	c.counts.ByClass[isa.Store] += iters * spill
	c.counts.GuardBranches += checks
	c.counts.LoopExits += exits
	c.loopRun.Sites = sites
	if len(sites) > 0 {
		c.loopRun.Count, c.loopRun.Rows, c.loopRun.Planes = axN[0], axN[1], axN[2]
		if len(c.em.buf) > 0 {
			c.em.flush() // keep event/loop-run ordering
		}
		c.em.sink.ConsumeLoop(&c.loopRun)
	}
	// As after the last iteration: the innermost body, then the overhead
	// pair of every box level.
	nInstr := 2*ng + 2*canOOB + loaded + 2*spill + flops + 2*uint64(nl-d)
	c.pc = innerBase + nInstr*c.ib
	return true
}

// boxSite is the LoopSite of affine j at addr, stepping along the box axes.
func boxSite(addr uint64, j int, axes *[3][]int, write bool) LoopSite {
	return LoopSite{Addr: addr, Size: tensor.ElemSize, Write: write,
		Step:      int64(axes[0][j]) * tensor.ElemSize,
		RowStep:   int64(axes[1][j]) * tensor.ElemSize,
		PlaneStep: int64(axes[2][j]) * tensor.ElemSize}
}

// runInnerIter is the walker's per-iteration innermost loop (unrolled
// bodies and blocks spanning several I-lines): the affine vector is
// advanced by the level's steps instead of re-evaluating affines per point.
func (c *execCtx) runInnerIter(d int, lv *level, blockBase uint64) {
	p := c.p
	v, s := c.rows[d].cur, lv.Step
	elem, tile := len(lv.Guards), len(v)-1
	spill := p.spillRegs > 0
	flops := uint64(p.bodyFLOPs)
	var alu, branch, fma, loads, stores, guardBr, exits uint64
	for i := 0; i < lv.Extent; i++ {
		c.vals[d] = i
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(i) * lv.PerIterSize
		}
		c.pc = iterBase
		// When the whole iteration block lies on one I-line (PerIterSize is
		// an upper bound on its emitted span), a single up-front check
		// replaces every per-instruction line-crossing test.
		sameLine := iterBase&^63 == (iterBase+lv.PerIterSize-1)&^63
		if sameLine {
			c.fetchLine() // pc is at iterBase
		}
		pass := true
		for gi := range lv.Guards {
			alu++
			branch++
			guardBr++
			if !sameLine {
				c.fetchLine()
				c.pc += c.ib
				c.fetchLine()
				c.pc += c.ib
			} else {
				c.pc += 2 * c.ib
			}
			if v[gi]+i*s[gi] >= lv.Guards[gi].Extent {
				pass = false
				break
			}
		}
		if pass {
			for si, site := range p.bodyLoads {
				if site.CanOOB {
					alu++
					branch++
					guardBr++
					if !sameLine {
						c.fetchLine()
						c.pc += c.ib
						c.fetchLine()
						c.pc += c.ib
					} else {
						c.pc += 2 * c.ib
					}
					in := true
					for dim, shape := range site.Tensor.Shape {
						j := p.dimAt[si] + dim
						if x := v[j] + i*s[j]; x < 0 || x >= shape {
							in = false
							break
						}
					}
					if !in {
						continue
					}
				}
				loads++
				if !sameLine {
					c.fetchLine()
				}
				off := v[elem+si] + i*s[elem+si]
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: site.Tensor.AddrOf(off), Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			ti := v[tile] + i*s[tile]
			spilled := spill && ti >= p.spillFrom
			if spilled {
				loads++
				if !sameLine {
					c.fetchLine()
				}
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Load})
				c.pc += c.ib
			}
			fma += flops
			if !sameLine {
				c.fetchSpan(p.bodyFLOPs)
			}
			c.pc += flops * c.ib
			if spilled {
				stores++
				if !sameLine {
					c.fetchLine()
				}
				c.em.emit(Event{Kind: EvData, PC: c.pc,
					Addr: p.stackBase + uint64(ti)*tensor.ElemSize, Size: tensor.ElemSize, Class: isa.Store})
				c.pc += c.ib
			}
		}
		if !lv.Unrolled {
			alu++
			branch++
			if !sameLine {
				c.fetchLine()
				c.pc += c.ib
				c.fetchLine()
				c.pc += c.ib
			} else {
				c.pc += 2 * c.ib
			}
			if i == lv.Extent-1 {
				exits++
			}
		}
	}
	c.counts.ByClass[isa.ALU] += alu
	c.counts.ByClass[isa.Branch] += branch
	c.counts.ByClass[isa.FMA] += fma
	c.counts.ByClass[isa.Load] += loads
	c.counts.ByClass[isa.Store] += stores
	c.counts.GuardBranches += guardBr
	c.counts.LoopExits += exits
}

// linearBelow returns the sub-interval of [0,n) where base+i*step < bound.
// Steps 0 and ±1 (the overwhelmingly common strides) avoid the division.
func linearBelow(base, step, bound, n int) (int, int) {
	switch {
	case step == 0:
		if base < bound {
			return 0, n
		}
		return 0, 0
	case step > 0:
		if base >= bound {
			return 0, 0
		}
		hi := bound - base
		if step != 1 {
			hi = (bound-1-base)/step + 1
		}
		if hi > n {
			hi = n
		}
		return 0, hi
	default:
		if base < bound {
			return 0, n
		}
		lo := base - bound + 1
		if step != -1 {
			lo = (base-bound)/(-step) + 1
		}
		if lo > n {
			lo = n
		}
		return lo, n
	}
}

// linearAtLeast returns the sub-interval of [0,n) where base+i*step >= bound.
func linearAtLeast(base, step, bound, n int) (int, int) {
	switch {
	case step == 0:
		if base >= bound {
			return 0, n
		}
		return 0, 0
	case step > 0:
		if base >= bound {
			return 0, n
		}
		lo := bound - base
		if step != 1 {
			lo = (bound - base + step - 1) / step
		}
		if lo > n {
			lo = n
		}
		return lo, n
	default:
		if base < bound {
			return 0, 0
		}
		hi := base - bound + 1
		if step != -1 {
			hi = (base-bound)/(-step) + 1
		}
		if hi > n {
			hi = n
		}
		return 0, hi
	}
}

// fetchSpan walks the fetch-line crossings of an n-instruction burst
// starting at the current PC (without advancing it or counting classes).
func (c *execCtx) fetchSpan(n int) {
	if n <= 0 {
		return
	}
	last := (c.pc + uint64(n-1)*c.ib) &^ 63
	line := c.pc &^ 63
	if line != c.lastLine {
		c.em.emit(Event{Kind: EvFetch, PC: line})
	}
	for line < last {
		line += 64
		c.em.emit(Event{Kind: EvFetch, PC: line})
	}
	c.lastLine = line
}

// blockSize returns the total code size of level d's block (all copies).
func (c *execCtx) blockSize(d int) uint64 {
	lv := c.p.levels[d]
	if lv.Unrolled {
		return lv.PerIterSize * uint64(lv.Extent)
	}
	return lv.PerIterSize
}

// runLevel executes all iterations of level d; blockBase is the code address
// of the level's block. In statistics-only execution of a scalar reduction
// body the levels of the reduction subtree run under the walker, which
// hoists its affine vector at the subtree's entry.
func (c *execCtx) runLevel(d int, blockBase uint64) {
	p := c.p
	lv := p.levels[d]
	switch {
	case lv.Vector:
		c.runVectorLevel(d, blockBase)
	case c.rows == nil || d < p.reduceStart:
		c.runIters(d, blockBase, 0, lv.Extent)
	default:
		if d == p.reduceStart {
			c.hoist(d)
		}
		c.walk(d, blockBase)
	}
}

// runIters executes iterations [a,b) of level d one at a time; under the
// walker the child level's affine vector is advanced to each iteration.
func (c *execCtx) runIters(d int, blockBase uint64, a, b int) {
	p := c.p
	lv := p.levels[d]
	inner := d == len(p.levels)-1
	walking := c.rows != nil && d >= p.reduceStart
	for i := a; i < b; i++ {
		c.vals[d] = i
		iterBase := blockBase
		if lv.Unrolled {
			iterBase += uint64(i) * lv.PerIterSize
		}
		c.pc = iterBase
		if c.passGuards(lv) {
			for _, site := range lv.Hoisted {
				c.scalarLoad(site)
			}
			if inner {
				c.scalarBody()
			} else {
				childBase := iterBase + p.levels[d+1].BlockOff
				if walking {
					cur, next := c.rows[d].cur, c.rows[d+1].cur
					for j := range next {
						next[j] = cur[j] + i*lv.Step[j]
					}
				}
				if d+1 == p.reduceStart {
					c.initBlock(childBase - p.initSize)
				}
				c.runLevel(d+1, childBase)
				if d+1 == p.reduceStart {
					c.storeLoop(childBase + c.blockSize(d+1))
				}
			}
		}
		if !lv.Unrolled {
			c.inst(isa.ALU, 0)
			fl := uint8(0)
			if i == lv.Extent-1 {
				fl = FlagLoopExit
			}
			c.inst(isa.Branch, fl)
		}
	}
}

// passGuards emits the guard checks of a level and reports whether the
// current iteration is inside the axis bounds.
func (c *execCtx) passGuards(lv *level) bool {
	for _, g := range lv.Guards {
		c.inst(isa.ALU, 0)
		c.inst(isa.Branch, FlagGuard)
		if g.Value.eval(c.vals) >= g.Extent {
			return false
		}
	}
	return true
}

// runVectorLevel executes the innermost SIMD loop in chunks of Lanes,
// falling back to scalar code for split tails and guard-cut chunks.
func (c *execCtx) runVectorLevel(d int, blockBase uint64) {
	p := c.p
	lv := p.levels[d]
	lanes := lv.Lanes
	for i := 0; i < lv.Extent; i += lanes {
		c.vals[d] = i
		c.pc = blockBase
		n := lanes
		if lv.Extent-i < n {
			n = lv.Extent - i
		}
		for _, g := range lv.Guards {
			c.inst(isa.ALU, 0)
			c.inst(isa.Branch, FlagGuard)
			v0 := g.Value.eval(c.vals)
			if v0 >= g.Extent {
				n = 0
				break
			}
			if step := g.Value.coefOf(d); step > 0 {
				if maxN := (g.Extent - v0 + step - 1) / step; maxN < n {
					n = maxN
				}
			}
		}
		switch {
		case n == lanes:
			c.vectorBody(d, lanes)
		case n > 0:
			for k := 0; k < n; k++ {
				c.vals[d] = i + k
				c.scalarBody()
			}
			c.vals[d] = i
		}
		c.inst(isa.ALU, 0)
		fl := uint8(0)
		if i+lanes >= lv.Extent {
			fl = FlagLoopExit
		}
		c.inst(isa.Branch, fl)
	}
}

// scalarLoad emits one scalar load of an access site (with a padding guard
// when the site can go out of bounds; out-of-bounds reads emit no load).
func (c *execCtx) scalarLoad(site *accessSite) {
	if site.CanOOB {
		c.inst(isa.ALU, 0)
		c.inst(isa.Branch, FlagGuard)
		if !c.siteInBounds(site) {
			return
		}
	}
	off := site.Elem.eval(c.vals)
	c.mem(isa.Load, site.Tensor.AddrOf(off), tensor.ElemSize)
}

// siteInBounds checks every tensor dimension of the site at the current
// loop values.
func (c *execCtx) siteInBounds(site *accessSite) bool {
	for d, la := range site.Dims {
		v := la.eval(c.vals)
		if v < 0 || v >= site.Tensor.Shape[d] {
			return false
		}
	}
	return true
}

// tileIdx computes the accumulator index of the current register-tile point.
func (c *execCtx) tileIdx() int {
	idx := 0
	for k, li := range c.p.tileLevels {
		idx += c.p.tileStrideList[k] * c.vals[li]
	}
	return idx
}

// syncAxisVals reconstructs compute-axis values from loop-level values
// (value-computation mode only).
func (c *execCtx) syncAxisVals() {
	for id := 0; id < c.p.numAxes; id++ {
		v := 0
		for _, t := range c.p.axisTerms[id] {
			v += t.Coef * c.vals[t.Level]
		}
		c.axisVals[id] = v
	}
}

// scalarBody executes one scalar point of the reduction body.
func (c *execCtx) scalarBody() {
	p := c.p
	for _, site := range p.bodyLoads {
		c.scalarLoad(site)
	}
	tileIdx := 0
	if len(p.tileLevels) > 0 {
		tileIdx = c.tileIdx()
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / p.levels[len(p.levels)-1].Lanes
	}
	spilled := p.spillRegs > 0 && regIdx >= p.spillFrom
	slot := p.stackBase + uint64(tileIdx)*tensor.ElemSize
	if spilled {
		c.mem(isa.Load, slot, tensor.ElemSize)
	}
	c.run(isa.FMA, p.bodyFLOPs)
	if spilled {
		c.mem(isa.Store, slot, tensor.ElemSize)
	}
	noReduce := p.reduceStart == len(p.levels)
	if c.compute {
		c.syncAxisVals()
		if noReduce {
			c.acc[tileIdx] = p.Op.Init
		}
		c.acc[tileIdx] = p.Op.CombineValues(c.acc[tileIdx], te.EvalExpr(p.Op.ReduceBody, c.axisVals, 0))
	}
	if noReduce {
		c.storePoint(tileIdx)
	}
}

// vectorBody executes one full-width SIMD point of the reduction body.
func (c *execCtx) vectorBody(d, lanes int) {
	p := c.p
	vbytes := uint16(lanes * tensor.ElemSize)
	for _, site := range p.bodyLoads {
		coef := site.Elem.coefOf(d)
		switch {
		case site.CanOOB:
			if coef == 1 && c.vectorSpanInBounds(site, d, lanes) {
				c.inst(isa.ALU, 0)
				c.inst(isa.Branch, FlagGuard)
				off := site.Elem.eval(c.vals)
				c.mem(isa.VLoad, site.Tensor.AddrOf(off), vbytes)
			} else {
				base := c.vals[d]
				for k := 0; k < lanes; k++ {
					c.vals[d] = base + k
					c.scalarLoad(site)
				}
				c.vals[d] = base
				c.inst(isa.ALU, 0) // lane combine
			}
		case coef == 1:
			off := site.Elem.eval(c.vals)
			c.mem(isa.VLoad, site.Tensor.AddrOf(off), vbytes)
		default:
			// Gather: strided lanes load scalar and pack.
			base := c.vals[d]
			for k := 0; k < lanes; k++ {
				c.vals[d] = base + k
				off := site.Elem.eval(c.vals)
				c.mem(isa.Load, site.Tensor.AddrOf(off), tensor.ElemSize)
			}
			c.vals[d] = base
			c.inst(isa.ALU, 0)
		}
	}
	tileIdx := 0
	if len(p.tileLevels) > 0 {
		tileIdx = c.tileIdx()
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / lanes
	}
	spilled := p.spillRegs > 0 && regIdx >= p.spillFrom
	slot := p.stackBase + uint64(tileIdx)*tensor.ElemSize
	if spilled {
		c.mem(isa.VLoad, slot, vbytes)
	}
	c.run(isa.VFMA, p.bodyFLOPs)
	if spilled {
		c.mem(isa.VStore, slot, vbytes)
	}
	noReduce := p.reduceStart == len(p.levels)
	if c.compute || noReduce {
		base := c.vals[d]
		for k := 0; k < lanes; k++ {
			c.vals[d] = base + k
			ti := tileIdx
			if len(p.tileLevels) > 0 {
				ti = c.tileIdx()
			}
			if c.compute {
				c.syncAxisVals()
				if noReduce {
					c.acc[ti] = p.Op.Init
				}
				c.acc[ti] = p.Op.CombineValues(c.acc[ti], te.EvalExpr(p.Op.ReduceBody, c.axisVals, 0))
			}
			if noReduce {
				c.storePoint(ti)
			}
		}
		c.vals[d] = base
	}
}

// vectorSpanInBounds checks the first and last lane of a unit-stride span.
func (c *execCtx) vectorSpanInBounds(site *accessSite, d, lanes int) bool {
	if !c.siteInBounds(site) {
		return false
	}
	c.vals[d] += lanes - 1
	ok := c.siteInBounds(site)
	c.vals[d] -= lanes - 1
	return ok
}

// initBlock zeroes the accumulator registers at the entry of the reduction.
func (c *execCtx) initBlock(basePC uint64) {
	c.pc = basePC
	c.run(isa.ALU, c.p.accRegs)
	if c.compute {
		for i := range c.acc {
			c.acc[i] = c.p.Op.Init
		}
	}
}

// storeLoop writes the register tile back to the output tensor, applying the
// epilogue and re-checking split-tail guards of tile axes.
func (c *execCtx) storeLoop(basePC uint64) {
	if len(c.p.tileLevels) == 0 {
		c.pc = basePC
		c.storePoint(0)
		return
	}
	c.storeLoopLevel(0, basePC)
}

func (c *execCtx) storeLoopLevel(k int, basePC uint64) {
	p := c.p
	li := p.tileLevels[k]
	lv := p.levels[li]
	for i := 0; i < lv.Extent; i++ {
		c.vals[li] = i
		c.pc = basePC
		if c.passGuards(lv) {
			if k == len(p.tileLevels)-1 {
				c.storePoint(c.tileIdx())
			} else {
				c.storeLoopLevel(k+1, basePC)
			}
		}
		c.inst(isa.ALU, 0)
		fl := uint8(0)
		if i == lv.Extent-1 {
			fl = FlagLoopExit
		}
		c.inst(isa.Branch, fl)
	}
}

// storePoint applies the epilogue to one accumulator and stores the result.
func (c *execCtx) storePoint(tileIdx int) {
	p := c.p
	for _, site := range p.epiLoads {
		c.scalarLoad(site)
	}
	regIdx := tileIdx
	if p.vecTile {
		regIdx = tileIdx / p.levels[len(p.levels)-1].Lanes
	}
	if p.spillRegs > 0 && regIdx >= p.spillFrom {
		c.mem(isa.Load, p.stackBase+uint64(tileIdx)*tensor.ElemSize, tensor.ElemSize)
	}
	c.run(isa.FMA, p.epiFLOPs)
	off := p.store.Elem.eval(c.vals)
	c.mem(isa.Store, p.store.Tensor.AddrOf(off), tensor.ElemSize)
	if c.compute {
		c.syncAxisVals()
		v := c.acc[tileIdx]
		if p.Op.Epilogue != nil {
			v = te.EvalExpr(p.Op.Epilogue, c.axisVals, v)
		}
		p.store.Tensor.Data[off] = v
	}
}
