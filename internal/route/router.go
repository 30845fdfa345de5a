package route

import (
	"context"
	"fmt"
	"sort"

	"m3d/internal/errs"
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
)

// routedNet keeps the committed paths of one net for rip-up.
type routedNet struct {
	net   *netlist.Net
	paths [][]int
	// failed counts the sinks the net's latest routing left unconnected.
	failed int
	// hpwl is the net's HPWL at route time, precomputed once so the
	// work-list ordering does not recompute it O(n log n) times.
	hpwl int64
}

// sinkRef pairs a sink pin with its precomputed driver distance for the
// nearest-first ordering inside routeNet.
type sinkRef struct {
	pin  *netlist.Pin
	dist int64
}

// Route globally routes all signal nets of the placed netlist. Clock nets
// and nets above the fanout threshold are idealized (skipped). The router
// runs an initial pass plus negotiated rip-up-and-reroute rounds on
// overflowing nets, one net at a time in work-list order. It checks ctx
// before each net and each rip-up round; a cancelled route returns an
// error matching errs.ErrCanceled.
func Route(ctx context.Context, f *floorplan.Floorplan, nl *netlist.Netlist, opt Options) (*Result, error) {
	res, _, _, err := route(ctx, f, nl, opt)
	return res, err
}

// route is Route, also returning the final grid and the routed nets,
// which the invariant tests audit.
func route(ctx context.Context, f *floorplan.Floorplan, nl *netlist.Netlist, opt Options) (*Result, *grid, []*routedNet, error) {
	opt = opt.withDefaults()
	g := newGrid(f, opt)
	if g.boundary < 0 {
		return nil, nil, nil, fmt.Errorf("route: stack has no lower-metal boundary")
	}

	res := &Result{
		Routes:     make(map[*netlist.Net]*NetRoute),
		WLByLayer:  make([]int64, len(g.layers)),
		GCellPitch: g.pitch,
	}

	var work []*routedNet
	for _, n := range nl.Nets {
		if (n.Clock && !opt.IncludeClock) || len(n.Sinks)+1 > opt.MaxFanout ||
			n.Driver == nil || len(n.Sinks) == 0 {
			res.SkippedNets++
			continue
		}
		work = append(work, &routedNet{net: n, hpwl: n.HPWL()})
	}
	// Short nets first: they lock in the cheap resources, long nets then
	// negotiate around them.
	sort.SliceStable(work, func(i, j int) bool {
		return work[i].hpwl < work[j].hpwl
	})

	s := newSearcher(g)
	for _, rn := range work {
		if err := checkCtx(ctx); err != nil {
			return nil, nil, nil, err
		}
		rn.paths, rn.failed = s.routeNet(rn.net, rn.paths[:0])
	}

	// Negotiated rip-up and reroute.
	for round := 0; round < opt.MaxRipupRounds; round++ {
		if err := checkCtx(ctx); err != nil {
			return nil, nil, nil, err
		}
		ov := g.overflowCount(true)
		res.RipupHistory = append(res.RipupHistory, ov)
		if ov == 0 {
			break
		}
		for _, rn := range work {
			if err := checkCtx(ctx); err != nil {
				return nil, nil, nil, err
			}
			if !g.anyPathOverflows(rn.paths) {
				continue
			}
			for _, path := range rn.paths {
				g.commitPathUsage(path, -1)
			}
			rn.paths, rn.failed = s.routeNet(rn.net, rn.paths[:0])
		}
	}

	res.Stats = s.stats
	finalize(g, f, work, res)
	return res, g, work, nil
}

// checkCtx converts a cancelled context into the router's error contract.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("route: %w: %w", errs.ErrCanceled, err)
	}
	return nil
}

// routeNet routes one net from scratch as a tree grown from the
// driver, nearest sink first: each sink is reached by one multi-source
// A* from the nearest node of the partial tree, and the new path's nodes
// join the tree. A path leaves the tree at its first node and never
// re-enters it, so each grid edge is charged at most once per net. Each
// found path is committed to the grid before the next sink is routed and
// appended to dst, which is returned along with the count of unroutable
// sinks.
func (s *searcher) routeNet(n *netlist.Net, dst [][]int) ([][]int, int) {
	g := s.g
	failed := 0
	s.resetTree(g.pinNode(n.Driver))
	sinks := s.sinkScratch[:0]
	dloc := n.Driver.Loc()
	for _, sk := range n.Sinks {
		sinks = append(sinks, sinkRef{pin: sk, dist: sk.Loc().ManhattanDist(dloc)})
	}
	sort.SliceStable(sinks, func(i, j int) bool {
		return sinks[i].dist < sinks[j].dist
	})
	s.sinkScratch = sinks
	for _, sr := range sinks {
		d := g.pinNode(sr.pin)
		if s.onTree(d) {
			continue
		}
		path := s.astar(s.tree, d)
		if path == nil {
			failed++
			continue
		}
		g.commitPathUsage(path, +1)
		s.addToTree(path[1:]...)
		dst = append(dst, path)
	}
	return dst, failed
}

// finalize converts the committed paths into the Result's accounting.
func finalize(g *grid, f *floorplan.Floorplan, work []*routedNet, res *Result) {
	for _, rn := range work {
		nr := &NetRoute{Net: rn.net}
		for _, path := range rn.paths {
			segs, wl, vias, ilvs := g.describe(path)
			nr.Segs = append(nr.Segs, segs...)
			nr.WLdbu += wl
			nr.Vias += vias
			nr.ILVs += ilvs
		}
		if rn.failed > 0 {
			nr.Failed = true
			res.FailedNets++
		}
		res.Routes[rn.net] = nr
		res.TotalWLdbu += nr.WLdbu
		res.TotalVias += nr.Vias
		res.TotalILVs += nr.ILVs
		for _, s := range nr.Segs {
			if s.A != s.B {
				res.WLByLayer[s.LayerIdx] += s.A.ManhattanDist(s.B)
			}
		}
	}
	res.OverflowEdges = g.overflowCount(false)
	res.Congestion = g.congestionGrid(f)
}

// congestionGrid summarizes per-gcell routing utilization: for each cell,
// the maximum usage/capacity ratio across layers and edge families.
func (g *grid) congestionGrid(f *floorplan.Floorplan) *geom.Grid {
	out := geom.NewGrid(f.Die, g.pitch)
	for l := 0; l < len(g.layers); l++ {
		for y := 0; y < g.ny && y < out.NY; y++ {
			for x := 0; x < g.nx && x < out.NX; x++ {
				i := g.idx(l, x, y)
				worst := out.At(x, y)
				check := func(use, capacity int32) {
					if capacity <= 0 {
						return
					}
					if u := float64(use) / float64(capacity); u > worst {
						worst = u
					}
				}
				check(g.useH[i], g.capH[i])
				check(g.useV[i], g.capV[i])
				check(g.useUp[i], g.capUp[i])
				out.Set(x, y, worst)
			}
		}
	}
	return out
}

// commitPathUsage applies only the usage deltas of a path (no segment
// generation).
func (g *grid) commitPathUsage(path []int, delta int32) {
	g.applyPath(path, delta, nil)
}

// describe converts a committed path into segments and counts without
// changing usage.
func (g *grid) describe(path []int) (segs []Seg, wl int64, vias, ilvs int) {
	out := &pathDescr{}
	g.applyPath(path, 0, out)
	return out.segs, out.wl, out.vias, out.ilvs
}

type pathDescr struct {
	segs []Seg
	wl   int64
	vias int
	ilvs int
}

// applyPath walks a path once, applying a usage delta and/or collecting a
// description.
func (g *grid) applyPath(path []int, delta int32, d *pathDescr) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		la, xya := g.split(a)
		lb, xyb := g.split(b)
		xa, ya := xya%g.nx, xya/g.nx
		xb, yb := xyb%g.nx, xyb/g.nx
		switch {
		case la != lb:
			lo := la
			if lb < lo {
				lo = lb
			}
			if delta != 0 {
				g.useUp[g.idx(lo, xa, ya)] += delta
			}
			if d != nil {
				d.vias++
				if lo == g.boundary {
					d.ilvs++
				}
				d.segs = append(d.segs, Seg{LayerIdx: lb, A: g.center(xa, ya), B: g.center(xa, ya)})
			}
		case xa != xb:
			lo := xa
			if xb < lo {
				lo = xb
			}
			if delta != 0 {
				g.useH[g.idx(la, lo, ya)] += delta
			}
			if d != nil {
				d.wl += g.pitch
				d.segs = append(d.segs, Seg{LayerIdx: la, A: g.center(xa, ya), B: g.center(xb, yb)})
			}
		default:
			lo := ya
			if yb < lo {
				lo = yb
			}
			if delta != 0 {
				g.useV[g.idx(la, xa, lo)] += delta
			}
			if d != nil {
				d.wl += g.pitch
				d.segs = append(d.segs, Seg{LayerIdx: la, A: g.center(xa, ya), B: g.center(xb, yb)})
			}
		}
	}
}
