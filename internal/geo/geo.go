// Package geo provides the planar geometry primitives used throughout the
// LATEST reproduction: points, axis-aligned rectangles and uniform grid
// cell arithmetic.
//
// Coordinates follow the paper's convention of longitude/latitude pairs, but
// nothing in this package assumes geographic semantics; all estimators treat
// space as a flat 2-D plane bounded by a world rectangle.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in 2-D space. X is longitude-like, Y is latitude-like.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SquaredDistanceTo returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only uses.
func (p Point) SquaredDistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle, closed on the min edges and open on the
// max edges ([MinX, MaxX) × [MinY, MaxY)) so that adjacent grid cells tile
// space without double-counting boundary points. The sole exception is the
// world rectangle's own max edges, which callers typically nudge outward by
// an epsilon so the extreme data point still lands inside.
type Rect struct {
	MinX, MinY float64
	MaxX, MaxY float64
}

// NewRect builds a Rect from two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectWH builds a Rect from a min corner plus width and height.
func RectWH(min Point, w, h float64) Rect {
	return Rect{MinX: min.X, MinY: min.Y, MaxX: min.X + w, MaxY: min.Y + h}
}

// CenteredRect builds a Rect centred on c with the given width and height.
func CenteredRect(c Point, w, h float64) Rect {
	return Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6f,%.6f]x[%.6f,%.6f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Width returns MaxX-MinX.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns MaxY-MinY.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area; degenerate rectangles have area 0.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the rectangle's centre point.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Valid reports whether the rectangle's coordinates are finite and ordered.
func (r Rect) Valid() bool {
	for _, v := range [...]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Contains reports whether p lies inside r (min-closed, max-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Intersect returns the overlap of r and s; the result is Empty when they
// do not intersect.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side (shrunk when d is negative).
func (r Rect) Expand(d float64) Rect {
	out := Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Clamp returns p moved to the nearest point inside r (max edges treated as
// inclusive for clamping purposes, then nudged just inside).
func (r Rect) Clamp(p Point) Point {
	x := math.Max(r.MinX, math.Min(p.X, math.Nextafter(r.MaxX, r.MinX)))
	y := math.Max(r.MinY, math.Min(p.Y, math.Nextafter(r.MaxY, r.MinY)))
	return Point{x, y}
}

// OverlapFraction returns |r∩s| / |s|: the fraction of s's area covered by
// r. Returns 0 when s has zero area and does not contain... (degenerate s
// counts as fully covered when its min corner is inside r, matching the
// point-query limit).
func (r Rect) OverlapFraction(s Rect) float64 {
	if s.Area() == 0 {
		if r.Contains(Point{s.MinX, s.MinY}) {
			return 1
		}
		return 0
	}
	return r.Intersect(s).Area() / s.Area()
}

// Quadrants splits r into its four child quadrants in Z order:
// SW, SE, NW, NE.
func (r Rect) Quadrants() [4]Rect {
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	return [4]Rect{
		{r.MinX, r.MinY, cx, cy}, // SW
		{cx, r.MinY, r.MaxX, cy}, // SE
		{r.MinX, cy, cx, r.MaxY}, // NW
		{cx, cy, r.MaxX, r.MaxY}, // NE
	}
}

// QuadrantOf returns which quadrant index (as produced by Quadrants) point p
// falls in. p is assumed to be inside r.
func (r Rect) QuadrantOf(p Point) int {
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	q := 0
	if p.X >= cx {
		q |= 1
	}
	if p.Y >= cy {
		q |= 2
	}
	return q
}

// UnitSquare is the [0,1) × [0,1) world used by most tests.
var UnitSquare = Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
