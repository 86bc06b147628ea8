package engine

import (
	"math"

	"repro/internal/bands"
	"repro/internal/field"
)

// latticeRowBand is the number of lattice rows one parallel fill band
// covers.
const latticeRowBand = 8

// latticeShareRule is the derived enable rule of the shared sensing
// lattice: share when the box holds no more points than the slot's discs
// read. Tests replace it to force sharing on or off.
var latticeShareRule = func(boxPoints, discReads float64) bool { return boxPoints <= discReads }

// shareLattice prepares the slot's shared sensing lattice and returns the
// field the Sense stage reads. With noiseless sensing, and when the alive
// nodes' bounding box — expanded by Rs and clipped to the region — holds
// no more integer points than the slot's discs read (alive × (πRs² + 1)),
// it evaluates the field once at every integer point of that box, in
// parallel row bands, and returns a view serving those values; the disc
// readings through the view are bit-identical to direct ones. Otherwise it
// returns the field itself and the slot runs unshared.
func (e *Engine) shareLattice(s *Slot) field.DynField {
	if e.opts.NoiseStd != 0 || s.AliveCount == 0 {
		return e.dyn
	}
	rs := e.opts.Config.Rs
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, p := range e.pos {
		if !s.Alive.Up(i) {
			continue
		}
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	b := e.dyn.Bounds()
	x0, x1 := math.Ceil(math.Max(minX-rs, b.Min.X)), math.Floor(math.Min(maxX+rs, b.Max.X))
	y0, y1 := math.Ceil(math.Max(minY-rs, b.Min.Y)), math.Floor(math.Min(maxY+rs, b.Max.Y))
	nx, ny := x1-x0+1, y1-y0+1
	const maxCoord = 1 << 52 // integer-exact float range
	if !(nx >= 1 && ny >= 1) || !(math.Abs(x0) < maxCoord && math.Abs(x1) < maxCoord &&
		math.Abs(y0) < maxCoord && math.Abs(y1) < maxCoord) ||
		!latticeShareRule(nx*ny, float64(s.AliveCount)*(math.Pi*rs*rs+1)) {
		return e.dyn
	}
	e.lattice.Reset(e.dyn, e.t, int(x0), int(y0), int(nx), int(ny))
	bands.Run(e.lattice.Rows(), latticeRowBand, func(_, lo, hi int) { e.lattice.FillRows(lo, hi) })
	return &e.lattice
}
