package main

import (
	"fmt"
	"runtime"
	"time"

	"m3d/internal/exec"
	"m3d/internal/flow"
	"m3d/internal/netlist"
	"m3d/internal/obs"
	"m3d/internal/route"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

const (
	// yieldSamples is the corner count of one operation: the /v1/yield
	// cap.
	yieldSamples = 65536
	// yieldWindow is the corner window of a traced replay.
	yieldWindow = 4096
	// recheckCorners are re-timed at width 1 after every operation.
	recheckCorners = 1024
)

// design is a placed-and-routed netlist a yield engine times.
type design struct {
	p      *tech.PDK
	nl     *netlist.Netlist
	routes *route.Result
}

// runYield times Monte Carlo yield on the case-study M3D design, which
// set-up builds once. Each operation is vary.NewEngine plus
// Engine.Analyze over yieldSamples corners with its own corner seed, so
// the batched STA kernel and the corner sampler do the work. A traced
// run follows each untraced operation with a traced replay of it:
// NewEngine, Prime, then timed CriticalPathsInto windows, which must
// reproduce the untraced result bit for bit.
func runYield(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	t0 := time.Now()
	p := tech.Default130()
	twoD, m3d, err := flow.CaseStudy(p, caseSpec(casePlacementSeed), caseNumCS)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if err := checkPair(twoD, m3d); err != nil {
		rep.attempted++
		rep.fail("set-up pair: %v", err)
	}
	var d design
	d.p, d.nl, d.routes = m3d.Design()
	v := tech.DefaultVariation()

	var plain, traced []time.Duration
	var busy time.Duration
	var layers []map[string]float64
	for op := 1; busy < cfg.seconds; op++ {
		seed := cfg.seed*1000 + int64(op)
		start := time.Now()
		eng, err := vary.NewEngine(d.p, d.nl, d.routes, v, seed)
		if err != nil {
			return nil, err
		}
		res, err := eng.Analyze(vary.Options{Samples: yieldSamples, Seed: seed})
		dur := time.Since(start)
		if err != nil {
			return nil, err
		}
		plain = append(plain, dur)
		busy += dur
		rep.attempted++
		if err := checkAnalyze(eng, res); err != nil {
			rep.fail("yield op %d: %v", op, err)
		}
		if !cfg.trace {
			continue
		}
		dur, layer, crit, err := tracedAnalyze(tr, op, d, v, seed)
		if err != nil {
			return nil, err
		}
		traced = append(traced, dur)
		layers = append(layers, layer)
		busy += dur
		rep.attempted++
		if err := sameBits(crit, res.CritPathS); err != nil {
			rep.fail("yield op %d: traced replay differs from Analyze: %v", op, err)
		}
	}

	if cfg.trace {
		rep.layer = medianLayers(layers)
		rep.layer["vary.trace_overhead_s"] = median(toSeconds(traced)) - median(toSeconds(plain))
		return rep, nil
	}
	ms := toSeconds(plain)
	rep.e2e["setup_s"] = setup.Seconds()
	rep.e2e["op_p50_ms"] = median(ms) * 1e3
	_, t := tail(ms)
	rep.e2e["op_tail_ms"] = t * 1e3
	rep.e2e["work_per_s"] = float64(len(plain)*yieldSamples) / busy.Seconds()
	qorOf(twoD, m3d).put(rep.e2e)
	return rep, nil
}

// checkAnalyze checks one Analyze result and, outside the timed region,
// re-times its first corners at width 1: they must match bit for bit.
func checkAnalyze(eng *vary.Engine, res *vary.Result) error {
	if err := checkYield(res, yieldSamples); err != nil {
		return err
	}
	head, err := eng.CriticalPaths(exec.Resolve(exec.WithWorkers(1)), 0, recheckCorners)
	if err != nil {
		return err
	}
	if err := sameBits(head, res.CritPathS[:recheckCorners]); err != nil {
		return fmt.Errorf("width-1 re-time: %w", err)
	}
	return nil
}

// tracedAnalyze replays one Analyze as its public steps, each under a
// benchmark span, with the program's spans and counters collected.
func tracedAnalyze(tr *tracer, op int, d design, v tech.Variation, seed int64) (time.Duration, map[string]float64, []float64, error) {
	rec, reg := obs.NewRecorder(), obs.NewRegistry()
	st := exec.Resolve(exec.WithTracer(rec), exec.WithMetrics(reg), exec.WithLabel("vary.sample"))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	from := tr.lastID()
	sp := tr.start(op, nil, "yield.op")

	s := tr.start(op, sp, "vary.NewEngine")
	eng, err := vary.NewEngine(d.p, d.nl, d.routes, v, seed)
	engine := s.end()
	if err != nil {
		return 0, nil, nil, err
	}
	s = tr.start(op, sp, "vary.Prime")
	eng.Prime(yieldSamples)
	prime := s.end()
	crit := make([]float64, yieldSamples)
	var windows time.Duration
	for lo := 0; lo < yieldSamples; lo += yieldWindow {
		hi := min(lo+yieldWindow, yieldSamples)
		s = tr.start(op, sp, "vary.CriticalPathsInto")
		err := eng.CriticalPathsInto(st, lo, hi, crit[lo:hi])
		windows += s.end()
		if err != nil {
			return 0, nil, nil, err
		}
	}
	dur := sp.end()
	runtime.ReadMemStats(&m1)
	tr.adopt(sp, from, rec.Spans())

	if err := checkCurve(vary.Curve(crit, vary.DefaultPeriods(eng.Nominal().CriticalPathS))); err != nil {
		return 0, nil, nil, err
	}
	return dur, map[string]float64{
		"vary.engine_s":               engine.Seconds(),
		"vary.prime_s":                prime.Seconds(),
		"vary.window_busy_s":          windows.Seconds(),
		"vary.ns_per_corner":          float64(windows.Nanoseconds()) / yieldSamples,
		"vary.alloc_bytes_per_corner": float64(m1.TotalAlloc-m0.TotalAlloc) / yieldSamples,
		"vary.samples":                float64(reg.Counter("vary.samples").Value()),
	}, crit, nil
}
