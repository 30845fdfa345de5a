package main

import (
	"testing"

	"m3d/internal/drc"
	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/geom"
	"m3d/internal/macro"
	"m3d/internal/netlist"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// TestCheckRoutesRejectsMissingSegment routes the case-study 2D design,
// requires the oracle to accept it, then removes one planar segment from
// a net whose route is a simple chain in the plane, so that the removal
// must cut the sink off, and requires the oracle to reject that route.
func TestCheckRoutesRejectsMissingSegment(t *testing.T) {
	spec := caseSpec(casePlacementSeed)
	spec.Style, spec.NumCS, spec.Banks = macro.Style2D, 1, 1
	res, err := flow.Run(tech.Default130(), spec, exec.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	_, _, routes := res.Design()
	if err := checkRoutes(res.Die, routes); err != nil {
		t.Fatalf("oracle rejects the router's result: %v", err)
	}
	for n, nr := range routes.Routes {
		if len(n.Sinks) != 1 {
			continue
		}
		var planar []int
		cells := map[geom.Point]bool{}
		for i, s := range nr.Segs {
			if s.A != s.B {
				planar = append(planar, i)
				cells[s.A], cells[s.B] = true, true
			}
		}
		if len(planar) < 2 || len(cells) != len(planar)+1 {
			continue // no planar step, or the route revisits a GCell
		}
		cut := planar[len(planar)/2]
		segs := append(append([]route.Seg(nil), nr.Segs[:cut]...), nr.Segs[cut+1:]...)
		broken := &route.Result{
			GCellPitch: routes.GCellPitch,
			Routes:     map[*netlist.Net]*route.NetRoute{n: {Net: n, Segs: segs}},
		}
		if err := checkRoutes(res.Die, broken); err == nil {
			t.Fatalf("oracle accepts net %s with segment %d of %d removed", n.Name, cut, len(nr.Segs))
		}
		return
	}
	t.Fatal("no single-sink net routed as a simple chain")
}

func TestCheckAudit(t *testing.T) {
	overflow := drc.Violation{Kind: drc.KindOverflow, Object: "global", Detail: "51 routing edges above capacity"}
	for _, tc := range []struct {
		name       string
		violations []drc.Violation
		edges      int
		ok         bool
	}{
		{"clean", nil, 0, true},
		{"overflow matches", []drc.Violation{overflow}, 51, true},
		{"overflow differs", []drc.Violation{overflow}, 50, false},
		{"overflow unreported", nil, 3, false},
		{"other kind", []drc.Violation{overflow, {Kind: drc.KindOverlap, Object: "u1"}}, 51, false},
	} {
		r := &flow.Result{Audit: &drc.Report{Violations: tc.violations}, OverflowEdges: tc.edges}
		if err := checkAudit(r); (err == nil) != tc.ok {
			t.Errorf("%s: checkAudit = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tail(xs); pct != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = p%g %g, want p99 990", pct, v)
	}
	if pct, v := tail(xs[:50]); pct != 75 || v != 38 {
		t.Errorf("tail of 1..50 = p%g %g, want p75 38", pct, v)
	}
	if pct, v := tail(xs[:15]); pct != 100 || v != 15 {
		t.Errorf("tail of 1..15 = p%g %g, want the maximum", pct, v)
	}
}

func TestCheckStream(t *testing.T) {
	for _, tc := range []struct {
		reply   string
		samples int
		ok      bool
	}{
		{`[{"samples":256},{"samples":512,"done":true}]`, 512, true},
		{`[{"samples":256},{"samples":256,"done":true}]`, 512, false},
		{`[{"done":true},{"done":true}]`, 0, false},
		{`[{},{"error":"canceled"}]`, 0, false},
		{`[{}]`, 0, false},
		{`[]`, 0, false},
		{`[{"done":true}`, 0, false},
	} {
		if err := checkStream([]byte(tc.reply), tc.samples); (err == nil) != tc.ok {
			t.Errorf("checkStream(%s, %d) = %v, want ok=%v", tc.reply, tc.samples, err, tc.ok)
		}
	}
}
