package main

import (
	"runtime"
	"strings"
	"time"

	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/macro"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// caseNumCS is the number of parallel CSs of the case-study M3D design.
const caseNumCS = 2

// casePlacementSeed is the placement seed of the case-study design, the
// reference m3dflow run's. It is fixed rather than drawn from the
// workload seed: across placement seeds 0-11 a pair takes 0.9-4.2 s and
// the M3D design ends with 0-507 overflow edges, so a seeded design
// would make every casestudy metric spread far beyond its bound.
const casePlacementSeed = 1

// caseSpec is the case-study scale: 2×2 PEs per CS, 8 MB RRAM and 64 kb
// of global SRAM.
func caseSpec(seed int64) flow.SoCSpec {
	return flow.SoCSpec{
		ArrayRows:      2,
		ArrayCols:      2,
		RRAMCapBits:    8 << 23,
		GlobalSRAMBits: 64 << 10,
		Seed:           seed,
	}
}

// qor is the quality of results of one case-study pair.
type qor struct {
	WL2D, WLM3D, Fmax2D, FmaxM3D float64
	Overflow2D, OverflowM3D      int
}

func qorOf(twoD, m3d *flow.Result) qor {
	return qor{
		WL2D: float64(twoD.RoutedWL) / 1e6, WLM3D: float64(m3d.RoutedWL) / 1e6,
		Fmax2D: twoD.FmaxHz / 1e6, FmaxM3D: m3d.FmaxHz / 1e6,
		Overflow2D: twoD.OverflowEdges, OverflowM3D: m3d.OverflowEdges,
	}
}

// put stores the design-quality end-to-end metrics.
func (q qor) put(m map[string]float64) {
	m["wl_2d_mm"], m["wl_m3d_mm"] = q.WL2D, q.WLM3D
	m["fmax_2d_mhz"], m["fmax_m3d_mhz"] = q.Fmax2D, q.FmaxM3D
}

// runCaseStudy times flow.CaseStudy cold: every operation runs the 2D
// baseline and the iso-footprint M3D design from scratch at the
// program's default width. Set-up is one untimed pair that settles the
// process's heap, whose outputs are checked like every other pair's.
// A traced run alternates untraced pairs with traced ones on the same
// inputs, which gives the tracing overhead.
func runCaseStudy(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	t0 := time.Now()
	p := tech.Default130()
	spec := caseSpec(casePlacementSeed)
	twoD, m3d, err := flow.CaseStudy(p, spec, caseNumCS)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	want := qorOf(twoD, m3d)
	if err := checkPair(twoD, m3d); err != nil {
		rep.attempted++
		rep.fail("set-up pair: %v", err)
	}

	check := func(twoD, m3d *flow.Result) {
		rep.attempted++
		if err := checkPair(twoD, m3d); err != nil {
			rep.fail("pair %d: %v", rep.attempted, err)
		} else if got := qorOf(twoD, m3d); got != want {
			rep.fail("pair %d: quality of results %+v differs from the set-up pair's %+v", rep.attempted, got, want)
		}
	}

	var plain, traced []time.Duration
	var busy time.Duration
	var layers []map[string]float64
	for op := 1; busy < cfg.seconds || (cfg.trace && len(traced) == 0); op++ {
		if cfg.trace && op%2 == 0 {
			d, layer, twoD, m3d, err := tracedPair(tr, op, p, spec)
			if err != nil {
				return nil, err
			}
			check(twoD, m3d)
			traced = append(traced, d)
			layers = append(layers, layer)
			busy += d
			continue
		}
		start := time.Now()
		twoD, m3d, err := flow.CaseStudy(p, spec, caseNumCS)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		check(twoD, m3d)
		plain = append(plain, d)
		busy += d
	}

	if cfg.trace {
		rep.layer = medianLayers(layers)
		rep.layer["flow.trace_overhead_s"] = median(toSeconds(traced)) - median(toSeconds(plain))
		return rep, nil
	}
	ms := toSeconds(plain)
	rep.e2e["setup_s"] = setup.Seconds()
	rep.e2e["op_p50_ms"] = median(ms) * 1e3
	_, t := tail(ms)
	rep.e2e["op_tail_ms"] = t * 1e3
	rep.e2e["work_per_s"] = float64(len(plain)) / busy.Seconds()
	want.put(rep.e2e)
	return rep, nil
}

// tracedPair runs one pair with the program's spans and counters
// collected, and returns its per-layer metrics.
func tracedPair(tr *tracer, op int, p *tech.PDK, spec flow.SoCSpec) (time.Duration, map[string]float64, *flow.Result, *flow.Result, error) {
	rec, reg := obs.NewRecorder(), obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	from := tr.lastID()
	sp := tr.start(op, nil, "casestudy.pair")
	twoD, m3d, err := flow.CaseStudy(p, spec, caseNumCS, exec.WithTracer(rec), exec.WithMetrics(reg))
	d := sp.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	tr.adopt(sp, from, rec.Spans())

	l := map[string]float64{}
	var runs, stages float64
	for _, s := range rec.Spans() {
		stage, ok := strings.CutPrefix(s.Name, "flow.")
		switch {
		case !ok:
		case stage == "run":
			runs += s.Dur().Seconds()
			if s.Attr("style") == macro.Style2D.String() {
				l["flow.run_2d_s"] += s.Dur().Seconds()
			} else {
				l["flow.run_m3d_s"] += s.Dur().Seconds()
			}
		case s.Attr("skipped") == "true":
		default:
			l[stage+".busy_s"] += s.Dur().Seconds()
			stages += s.Dur().Seconds()
		}
	}
	if runs > 0 {
		l["flow.stage_cover_ratio"] = stages / runs
	}
	l["route.busy_share"] = l["route.busy_s"] / d.Seconds()
	committed := float64(reg.Counter("flow.route.nets.committed").Value())
	rerouted := float64(reg.Counter("flow.route.nets.rerouted").Value())
	l["route.spec_committed"], l["route.spec_rerouted"] = committed, rerouted
	if committed+rerouted > 0 {
		l["route.spec_useful_ratio"] = committed / (committed + rerouted)
	}
	l["flow.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	_, _, r2 := twoD.Design()
	_, _, r3 := m3d.Design()
	l["route.ripup_rounds_m3d"] = float64(len(r3.RipupHistory))
	if len(r3.RipupHistory) > 0 {
		l["route.overflow_start_m3d"] = float64(r3.RipupHistory[0])
	}
	l["route.ripup_rounds_2d"] = float64(len(r2.RipupHistory))
	l["route.overflow_2d"], l["route.overflow_m3d"] = float64(twoD.OverflowEdges), float64(m3d.OverflowEdges)
	l["route.vias_m3d"], l["route.ilvs_2d"] = float64(m3d.Vias), float64(twoD.ILVs)

	l["sta.passes_full"] = float64(reg.Counter("flow.sta.passes.full").Value())
	l["sta.passes_incremental"] = float64(reg.Counter("flow.sta.passes.incremental").Value())
	skipped := float64(reg.Counter("flow.sta.insts.skipped").Value())
	recomputed := float64(reg.Counter("flow.sta.insts.recomputed").Value())
	if skipped+recomputed > 0 {
		l["sta.insts_skip_ratio"] = skipped / (skipped + recomputed)
	}
	return d, l, twoD, m3d, nil
}

// medianLayers is the per-metric median over the traced operations'
// metrics; a metric missing from an operation counts as 0.
func medianLayers(layers []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layers {
		for name := range l {
			if _, done := out[name]; done {
				continue
			}
			xs := make([]float64, len(layers))
			for i, l := range layers {
				xs[i] = l[name]
			}
			out[name] = median(xs)
		}
	}
	return out
}
