package lower

import (
	"repro/internal/isa"
	"repro/internal/schedule"
	"repro/internal/te"
	"repro/internal/tensor"
)

// coefTerm is one sparse affine term coef·vals[Level] over loop levels.
type coefTerm struct {
	Level int
	Coef  int
}

// levelAffine is a sparse affine expression over loop-level values.
type levelAffine struct {
	Terms []coefTerm
	Const int
}

func (a levelAffine) eval(vals []int) int {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * vals[t.Level]
	}
	return v
}

// coefOf returns the coefficient of the given level (0 if absent).
func (a levelAffine) coefOf(level int) int {
	c := 0
	for _, t := range a.Terms {
		if t.Level == level {
			c += t.Coef
		}
	}
	return c
}

// axisGuard is a split-tail bounds check: the reconstructed axis value must
// stay below Extent. It is checked at the deepest loop level of the axis.
type axisGuard struct {
	Axis   *te.Axis
	Extent int
	Value  levelAffine
}

// accessSite is one tensor access of the kernel, resolved to loop levels.
type accessSite struct {
	Tensor *tensor.Tensor
	// Dims are per-tensor-dimension index affines (needed for padding
	// guards and value computation).
	Dims []levelAffine
	// Elem is the flattened element-offset affine (Σ stride·dim).
	Elem levelAffine
	// CanOOB is true when some in-domain iteration indexes outside the
	// tensor (conv padding); such loads are guarded and read 0.
	CanOOB bool
	// HoistLevel is the deepest loop level the access depends on; the load
	// is emitted once per iteration of that level. -1 = program preheader.
	HoistLevel int
}

// storeSite describes the output write.
type storeSite struct {
	Tensor *tensor.Tensor
	Dims   []levelAffine
	Elem   levelAffine
}

// level is one compiled loop.
type level struct {
	IV     *schedule.IterVar
	Extent int
	// Unrolled loops replicate code instead of branching.
	Unrolled bool
	// Vector is set on the innermost SIMD loop.
	Vector bool
	// Lanes is the SIMD width of this loop (1 for scalar loops).
	Lanes int
	// Reduce reports whether the underlying axis is a reduction axis.
	Reduce bool
	// Guards checked at the start of each iteration of this level.
	Guards []axisGuard
	// Hoisted loads emitted once per iteration of this level (after guards).
	Hoisted []*accessSite

	// BlockOff is the code offset of this level's block within the parent
	// iteration block; PerIterSize is one iteration's code size (unrolled
	// copies each occupy PerIterSize bytes).
	BlockOff    uint64
	PerIterSize uint64

	// Step is the per-iteration delta of each entry of the walker's affine
	// vector (Program.affines); DeepMin/DeepMax bound the contribution of
	// the levels below this one over their full ranges. Set on the levels
	// of the reduction subtree only.
	Step, DeepMin, DeepMax []int
	// Box marks a level of the reduction subtree whose iterations the
	// walker may group into boxes: it and the levels below it are not
	// unrolled, the ones above the innermost carry no guards or hoisted
	// loads, and at most two levels below it have extent > 1.
	Box bool
}

// Program is an executable lowered kernel for one ISA.
type Program struct {
	Model isa.Model
	Op    *te.ComputeOp
	Sched *schedule.Schedule

	levels []*level
	// reduceStart is the index of the outermost reduce level
	// (len(levels) if the kernel has no reduction axes).
	reduceStart int
	// tileLevels are the spatial levels inside the reduction subtree; their
	// cross product is the register tile of accumulators.
	tileLevels []int
	tileCount  int
	// tileStride maps a tile level to its stride in accumulator indexing;
	// tileStrideList holds the same strides parallel to tileLevels for the
	// executor's hot path.
	tileStride     map[int]int
	tileStrideList []int
	// vecTile is true when the innermost level is a vectorized member of the
	// register tile (accumulators become vector registers).
	vecTile bool

	// body describes the innermost reduction body.
	bodyLoads []*accessSite
	bodyFLOPs int

	// epilogue data (store phase).
	epiLoads []*accessSite
	epiFLOPs int
	store    storeSite

	// Register/spill model.
	accRegs   int // accumulator registers required (vector-adjusted)
	spillRegs int // accumulators beyond the register file, spilled to stack
	spillFrom int // register index at which spilling starts
	stackBase uint64

	// Code layout.
	codeBase      uint64
	codeSize      uint64
	preheaderSize uint64
	initSize      uint64
	storeBodySize uint64
	preheader     []*accessSite // loads invariant to all loops

	// axisTerms give, per compute axis ID, the (level, weight) pairs that
	// reconstruct the axis value from loop-level values.
	axisTerms [][]coefTerm
	numAxes   int

	// The walker's affine vector (see walk in exec.go): the innermost
	// level's guard values, each body load's element offset, the tensor
	// dimension indices of the CanOOB body loads (body load si's start at
	// dimAt[si]) and the register-tile index, in that order. Each level's
	// Step row advances it per iteration.
	affines []levelAffine
	dimAt   []int
}

// CodeBytes reports the static code footprint of the generated kernel, the
// quantity that pressures the L1I cache.
func (p *Program) CodeBytes() uint64 { return p.codeSize }

// SpillRegisters reports how many accumulator registers the register
// allocator had to spill to the stack.
func (p *Program) SpillRegisters() int { return p.spillRegs }

// TileCount reports the register-tile accumulator count (scalar elements).
func (p *Program) TileCount() int { return p.tileCount }

// StaticInstrEstimate returns a closed-form estimate of the dynamic
// instruction count without executing the program. The Eq. (4) speedup
// analysis uses it to extrapolate paper-scale instruction counts cheaply.
func (p *Program) StaticInstrEstimate() int64 {
	iters := int64(1)
	var total int64
	perLevelIters := make([]int64, len(p.levels))
	for d, lv := range p.levels {
		n := int64(lv.Extent)
		if lv.Vector && lv.Lanes > 1 {
			n = int64((lv.Extent + lv.Lanes - 1) / lv.Lanes)
		}
		iters *= n
		perLevelIters[d] = iters
		perIter := int64(len(lv.Guards))*2 + int64(len(lv.Hoisted))
		if !lv.Unrolled {
			perIter += 2 // loop add+branch
		}
		total += perLevelIters[d] * perIter
	}
	if len(p.levels) > 0 {
		inner := perLevelIters[len(p.levels)-1]
		perBody := int64(len(p.bodyLoads) + p.bodyFLOPs)
		if p.spillRegs > 0 && p.accRegs > 0 {
			perBody += 2 * int64(p.spillRegs) / int64(p.accRegs)
		}
		total += inner * perBody
	}
	// Store phase: one store per output point plus epilogue.
	outs := int64(p.Op.SpatialSize())
	total += outs * int64(1+p.epiFLOPs+len(p.epiLoads)+2)
	return total
}
