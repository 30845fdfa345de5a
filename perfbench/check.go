package main

import (
	"fmt"
	"math"

	"m3d/internal/drc"
	"m3d/internal/flow"
	"m3d/internal/geom"
	"m3d/internal/route"
	"m3d/internal/vary"
)

// defaultGCellsX is the router's default grid width, which the flow
// uses; checkRoutes needs it to clamp pins on the die's right edge the
// way the router does.
const defaultGCellsX = 48

// checkRoutes is the connectivity oracle. For every routed net, a
// union-find over its segments' endpoints must join the GCell of the
// driving pin to the GCell of every sink. It reads only the geometry, never
// the router's own NetRoute.Failed flag. It joins GCells in the plane:
// a via segment records only one of the two layers it joins, so layer
// continuity is not checked.
func checkRoutes(die geom.Rect, routes *route.Result) error {
	pitch := routes.GCellPitch
	if pitch <= 0 {
		return fmt.Errorf("routing grid pitch %d", pitch)
	}
	// The router keeps defaultGCellsX columns unless that would make a
	// GCell narrower than its minimum pitch; then the columns cover the
	// die with one to spare. Rows always do.
	nx := int64(defaultGCellsX)
	if nx*pitch > die.W() {
		nx = die.W()/pitch + 1
	}
	ny := die.H()/pitch + 1
	gcell := func(p geom.Point) geom.Point {
		x := min(max((p.X-die.Lo.X)/pitch, 0), nx-1)
		y := min(max((p.Y-die.Lo.Y)/pitch, 0), ny-1)
		return geom.Pt(die.Lo.X+x*pitch+pitch/2, die.Lo.Y+y*pitch+pitch/2)
	}
	for n, nr := range routes.Routes {
		parent := map[geom.Point]geom.Point{}
		var find func(geom.Point) geom.Point
		find = func(p geom.Point) geom.Point {
			q, ok := parent[p]
			if !ok || q == p {
				return p
			}
			r := find(q)
			parent[p] = r
			return r
		}
		for _, s := range nr.Segs {
			parent[find(s.A)] = find(s.B)
		}
		if n.Driver == nil {
			return fmt.Errorf("net %s: routed without a driving pin", n.Name)
		}
		d := gcell(n.Driver.Loc())
		for _, sk := range n.Sinks {
			c := gcell(sk.Loc())
			if c != d && find(c) != find(d) {
				return fmt.Errorf("net %s: sink %s.%s at GCell %v is not connected to the driving pin at %v",
					n.Name, sk.Inst.Name, sk.Name, c, d)
			}
		}
	}
	return nil
}

// checkAudit requires the DRC report to hold no kind of violation other
// than route overflow, and the overflow it reports to equal the
// router's OverflowEdges.
func checkAudit(r *flow.Result) error {
	if r.Audit == nil {
		return fmt.Errorf("no DRC report")
	}
	reported := 0
	for _, v := range r.Audit.Violations {
		if v.Kind != drc.KindOverflow {
			return fmt.Errorf("DRC %s", v)
		}
		var n int
		if _, err := fmt.Sscanf(v.Detail, "%d routing edges above capacity", &n); err != nil {
			return fmt.Errorf("DRC overflow detail %q: %v", v.Detail, err)
		}
		reported += n
	}
	if reported != r.OverflowEdges {
		return fmt.Errorf("DRC reports %d overflow edges, the router %d", reported, r.OverflowEdges)
	}
	return nil
}

// checkPair checks one 2D/M3D case-study pair: the two designs share a
// die and an RRAM capacity, and each passes the connectivity oracle and
// the DRC check.
func checkPair(twoD, m3d *flow.Result) error {
	if twoD.Die != m3d.Die {
		return fmt.Errorf("die differs: 2D %v, M3D %v", twoD.Die, m3d.Die)
	}
	if twoD.Spec.RRAMCapBits != m3d.Spec.RRAMCapBits {
		return fmt.Errorf("RRAM capacity differs: 2D %d bits, M3D %d bits", twoD.Spec.RRAMCapBits, m3d.Spec.RRAMCapBits)
	}
	for _, r := range []*flow.Result{twoD, m3d} {
		_, _, routes := r.Design()
		if routes == nil {
			return fmt.Errorf("%s: no routes", r.Spec.Style)
		}
		if err := checkRoutes(r.Die, routes); err != nil {
			return fmt.Errorf("%s: %w", r.Spec.Style, err)
		}
		if err := checkAudit(r); err != nil {
			return fmt.Errorf("%s: %w", r.Spec.Style, err)
		}
	}
	return nil
}

// checkYield checks one Monte Carlo result: ordered quantiles, a yield
// curve that never falls as the period grows, and the requested sample
// count.
func checkYield(r *vary.Result, samples int) error {
	if len(r.CritPathS) != samples {
		return fmt.Errorf("%d samples, want %d", len(r.CritPathS), samples)
	}
	q := r.CritQuantiles
	if !(q.P5 <= q.P50 && q.P50 <= q.P95) {
		return fmt.Errorf("quantiles out of order: %+v", q)
	}
	return checkCurve(r.Curve)
}

func checkCurve(c []vary.YieldPoint) error {
	for i := 1; i < len(c); i++ {
		if c[i].PeriodS <= c[i-1].PeriodS || c[i].Yield < c[i-1].Yield {
			return fmt.Errorf("yield curve falls or periods repeat at point %d: %+v after %+v", i, c[i], c[i-1])
		}
	}
	return nil
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}
