package flow

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"m3d/internal/errs"
	"m3d/internal/exec"
	"m3d/internal/macro"
	"m3d/internal/obs"
	"m3d/internal/tech"
)

// caseStudyOutputs renders everything a case-study pair produces: DEF,
// GDS and the numeric report of both designs.
func caseStudyOutputs(t *testing.T, twoD, m3d *Result) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, r := range []*Result{twoD, m3d} {
		if err := r.WriteDEF(&out); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteGDS(&out); err != nil {
			t.Fatal(err)
		}
	}
	out.Write(equivReport([]*Result{twoD, m3d}))
	return out.Bytes()
}

// routeCounters reads the router's kernel counters off a registry.
func routeCounters(reg *obs.Registry) [3]int64 {
	return [3]int64{
		reg.Counter("flow.route.searches").Value(),
		reg.Counter("flow.route.expanded").Value(),
		reg.Counter("flow.route.pushes").Value(),
	}
}

// TestCaseStudyMatchesSequentialAcrossWidths pins the overlapped
// CaseStudy against the sequential order it replaces — the 2D run, then
// the M3D run on the 2D die — at pool widths 1, 2 and 8: deep-equal
// Results, byte-identical DEF, GDS and report output, and identical
// route kernel counters.
func TestCaseStudyMatchesSequentialAcrossWidths(t *testing.T) {
	p := tech.Default130()
	scale := smallSpec()

	refReg := obs.NewRegistry()
	spec2 := scale.withDefaults()
	spec2.Style, spec2.NumCS, spec2.Banks = macro.Style2D, 1, 1
	want2, err := Run(p, spec2, exec.WithMetrics(refReg))
	if err != nil {
		t.Fatal(err)
	}
	spec3 := scale.withDefaults()
	spec3.Style, spec3.NumCS, spec3.Banks = macro.Style3D, 2, 2
	spec3.Die = want2.Die
	want3, err := Run(p, spec3, exec.WithMetrics(refReg))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := caseStudyOutputs(t, want2, want3)
	wantCounters := routeCounters(refReg)
	if wantCounters[0] == 0 {
		t.Fatal("reference runs counted no route searches")
	}

	for _, width := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		got2, got3, err := CaseStudy(p, scale, 2, exec.WithWorkers(width), exec.WithMetrics(reg))
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(stripDB(got2), stripDB(want2)) {
			t.Errorf("width %d: 2D Result differs from the sequential run", width)
		}
		if !reflect.DeepEqual(stripDB(got3), stripDB(want3)) {
			t.Errorf("width %d: M3D Result differs from the sequential run", width)
		}
		if !bytes.Equal(caseStudyOutputs(t, got2, got3), wantOut) {
			t.Errorf("width %d: DEF/GDS/report output differs from the sequential run", width)
		}
		if got := routeCounters(reg); got != wantCounters {
			t.Errorf("width %d: route counters (searches, expanded, pushes) %v, sequential %v", width, got, wantCounters)
		}
	}
}

// cancelOnRoute is a tracer that cancels a context a fixed delay after
// the M3D design's route stage starts, and records when it did.
type cancelOnRoute struct {
	obs.Tracer
	cancel context.CancelFunc
	delay  time.Duration

	once     sync.Once
	mu       sync.Mutex
	canceled time.Time
}

func (c *cancelOnRoute) StartSpan(name string, attrs ...obs.Attr) obs.Span {
	if name == "flow.route" && hasAttr(attrs, obs.String("style", macro.Style3D.String())) {
		c.once.Do(func() {
			time.AfterFunc(c.delay, func() {
				c.mu.Lock()
				c.canceled = time.Now()
				c.mu.Unlock()
				c.cancel()
			})
		})
	}
	return c.Tracer.StartSpan(name, attrs...)
}

func hasAttr(attrs []obs.Attr, want obs.Attr) bool {
	for _, a := range attrs {
		if a == want {
			return true
		}
	}
	return false
}

// TestCaseStudyCancelMidRoute cancels the case study while the M3D
// design is routing: CaseStudy must return an ErrCanceled error within
// 250 ms of the cancellation.
func TestCaseStudyCancelMidRoute(t *testing.T) {
	for _, width := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		tr := &cancelOnRoute{Tracer: obs.Nop(), cancel: cancel, delay: 50 * time.Millisecond}
		_, _, err := CaseStudy(tech.Default130(), smallSpec(), 2,
			exec.WithWorkers(width), exec.WithContext(ctx), exec.WithTracer(tr))
		returned := time.Now()
		cancel()
		if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v, want ErrCanceled wrapping context.Canceled", width, err)
		}
		tr.mu.Lock()
		lag := returned.Sub(tr.canceled)
		tr.mu.Unlock()
		if lag > 250*time.Millisecond {
			t.Errorf("width %d: returned %v after cancellation, want ≤ 250ms", width, lag)
		}
	}
}

// TestCaseStudyFailureCancelsSibling fails the M3D design (an invalid
// CS count) while the 2D design is still being finished: CaseStudy must
// report the M3D failure, not the cancellation it caused, and leave no
// goroutine behind.
func TestCaseStudyFailureCancelsSibling(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, width := range []int{1, 2} {
		_, _, err := CaseStudy(tech.Default130(), smallSpec(), -1, exec.WithWorkers(width))
		if !errors.Is(err, errs.ErrBadSpec) {
			t.Fatalf("width %d: err = %v, want the M3D design's ErrBadSpec", width, err)
		}
	}
	// Exited pool workers may still be unwinding; wait for them briefly.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the case studies, %d before:\n%s",
			n, before, buf[:runtime.Stack(buf, true)])
	}
}
