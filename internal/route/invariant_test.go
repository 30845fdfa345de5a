package route

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/floorplan"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// invariantSeeds is the seeded corpus of random placed netlists the
// route invariants are checked over.
const invariantSeeds = 6

// routedCase is one corpus design after Route's rip-up rounds, with the
// router's final grid and committed per-net paths.
type routedCase struct {
	seed int64
	res  *Result
	g    *grid
	work []*routedNet
}

// randomPlaced builds a seeded random placed netlist on a die of a few
// dozen GCells a side: nets of one to eight sinks on fixed cells, a
// third of them on the CNFET tier (so routes cross the ILV boundary),
// and one pin in five on the location of an earlier pin (so sinks share
// GCells with the driver and with each other). The die is small for the
// net count, so the initial pass overflows and rip-up rounds run.
func randomPlaced(t testing.TB, seed int64) (*floorplan.Floorplan, *netlist.Netlist) {
	t.Helper()
	p := tech.Default130()
	siLib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	cnLib, err := cell.NewLibrary(p, tech.TierCNFET)
	if err != nil {
		t.Fatal(err)
	}
	side := 12 * 4 * p.RowHeight
	fp, err := floorplan.New(p, geom.R(0, 0, side, side))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("rand%d", seed))
	var locs []geom.Point
	place := func(name string) *netlist.Instance {
		lib := siLib
		if rng.Intn(3) == 0 {
			lib = cnLib
		}
		inst := nl.AddCell(name, lib.MustPick(cell.Inv, 1))
		if len(locs) > 0 && rng.Intn(5) == 0 {
			inst.Pos = locs[rng.Intn(len(locs))]
		} else {
			inst.Pos = geom.Pt(rng.Int63n(side), rng.Int63n(side))
		}
		inst.Fixed = true
		locs = append(locs, inst.Pos)
		return inst
	}
	for i := 0; i < 700; i++ {
		n := nl.AddNet(fmt.Sprintf("n%d", i), 0.1)
		nl.MustPin(place(fmt.Sprintf("d%d", i)), "Y", true, 0, n)
		for k := 0; k <= rng.Intn(8); k++ {
			inst := place(fmt.Sprintf("s%d_%d", i, k))
			nl.MustPin(inst, "A", false, inst.Cell.InputCapF, n)
		}
	}
	return fp, nl
}

// routedCorpus routes every corpus design.
func routedCorpus(t *testing.T) []routedCase {
	t.Helper()
	var out []routedCase
	for seed := int64(1); seed <= invariantSeeds; seed++ {
		fp, nl := randomPlaced(t, seed)
		res, g, work, err := route(context.Background(), fp, nl, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, routedCase{seed: seed, res: res, g: g, work: work})
	}
	return out
}

// TestInvariantRouteConnectivity checks every net in 3D: a union-find
// over the node pairs of its committed paths joins the driver's node to
// every sink's node, layers included, and each pair is one grid step.
func TestInvariantRouteConnectivity(t *testing.T) {
	for _, rc := range routedCorpus(t) {
		g := rc.g
		if rc.res.FailedNets != 0 {
			t.Errorf("seed %d: %d failed nets", rc.seed, rc.res.FailedNets)
		}
		for _, rn := range rc.work {
			parent := map[int]int{}
			var find func(int) int
			find = func(n int) int {
				p, ok := parent[n]
				if !ok || p == n {
					return n
				}
				r := find(p)
				parent[n] = r
				return r
			}
			for _, path := range rn.paths {
				for i := 1; i < len(path); i++ {
					if !g.adjacent(path[i-1], path[i]) {
						t.Fatalf("seed %d net %s: nodes %d and %d are not one grid step apart",
							rc.seed, rn.net.Name, path[i-1], path[i])
					}
					parent[find(path[i-1])] = find(path[i])
				}
			}
			d := g.pinNode(rn.net.Driver)
			for _, sk := range rn.net.Sinks {
				if s := g.pinNode(sk); find(s) != find(d) {
					t.Fatalf("seed %d net %s: sink %s at node %d is not joined to the driver at node %d",
						rc.seed, rn.net.Name, sk.Inst.Name, s, d)
				}
			}
		}
	}
}

// TestInvariantUsageConservation re-applies every net's committed paths
// to a zeroed copy of the grid after the rip-up rounds: the copy's
// usage must equal the router's exactly. It also requires the corpus to
// have exercised rip-up at all.
func TestInvariantUsageConservation(t *testing.T) {
	ripped := false
	for _, rc := range routedCorpus(t) {
		g := rc.g
		if h := rc.res.RipupHistory; len(h) > 1 && h[0] > 0 {
			ripped = true
		}
		z := *g
		z.useH = make([]int32, len(g.useH))
		z.useV = make([]int32, len(g.useV))
		z.useUp = make([]int32, len(g.useUp))
		for _, rn := range rc.work {
			for _, path := range rn.paths {
				z.applyPath(path, +1, nil)
			}
		}
		if !slices.Equal(z.useH, g.useH) || !slices.Equal(z.useV, g.useV) || !slices.Equal(z.useUp, g.useUp) {
			t.Errorf("seed %d: committed paths do not reproduce the grid's usage", rc.seed)
		}
	}
	if !ripped {
		t.Error("no corpus design ran a rip-up round; the corpus no longer tests rip-up")
	}
}

// TestInvariantTreeEdgesDistinct checks the tree property: no grid edge
// appears twice among the committed paths of one net.
func TestInvariantTreeEdgesDistinct(t *testing.T) {
	for _, rc := range routedCorpus(t) {
		for _, rn := range rc.work {
			seen := map[[2]int]bool{}
			for _, path := range rn.paths {
				for i := 1; i < len(path); i++ {
					e := [2]int{min(path[i-1], path[i]), max(path[i-1], path[i])}
					if seen[e] {
						t.Fatalf("seed %d net %s: edge %v routed twice", rc.seed, rn.net.Name, e)
					}
					seen[e] = true
				}
			}
		}
	}
}

// adjacent reports whether nodes a and b are one grid step apart: a
// planar step on one layer or a via between neighboring layers.
func (g *grid) adjacent(a, b int) bool {
	la, xya := g.split(a)
	lb, xyb := g.split(b)
	xa, ya := xya%g.nx, xya/g.nx
	xb, yb := xyb%g.nx, xyb/g.nx
	return absInt(la-lb)+absInt(xa-xb)+absInt(ya-yb) == 1
}
