package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"m3d/internal/obs"
	"m3d/internal/serve"
)

// Service traffic. Every client runs a closed loop: it sends its next
// request when the previous reply has been read, drawing classes from a
// deck that holds each class weight times and is reshuffled every pass.
// A client stops at the first pass boundary after the measured time, so
// every run sends the classes in exactly the deck's proportions.
const (
	serviceClients = width
	// yieldStreamSamples and yieldStreamBatch shape every /v1/yield
	// request.
	yieldStreamSamples = 1024
	yieldStreamBatch   = 256
)

// svcClass is one request class of the service mix.
type svcClass struct {
	name, path string
	weight     int
	// fixed bodies are primed in set-up and answered from the server's
	// caches afterwards; each reply must equal its warm-up reply byte for
	// byte.
	fixed []string
	// gen makes a body with a fresh per-request seed instead; its reply
	// is a stream that must pass checkStream with samples.
	gen     func(rng *rand.Rand) string
	samples int
}

// flowBody is the /v1/flow request for one case-study design: the same
// scale as the casestudy workload. The M3D design is sized by the
// server, not forced onto the 2D die.
func flowBody(style string, numCS int, seed int64) string {
	return fmt.Sprintf(`{"style":%q,"num_cs":%d,"array_rows":2,"array_cols":2,"rram_cap_mb":8,"banks":%d,"global_sram_bits":65536,"seed":%d}`,
		style, numCS, numCS, seed)
}

// serviceMix is the traffic of the service workload: per 10 requests, 2
// cached sweeps, 2 cached flows, 4 yield streams and 2 DSE explorations.
// The weights put the median of all requests inside the yield class and
// the tail percentile (p95) inside the DSE class, both compute-bound.
// Cached reads take under 0.1 ms and, on a 2-vCPU host, swing with every
// scheduling hiccup: a median among them spread 26% from run to run.
// DSE requests are frequent enough that two of them overlap in every
// run, and that overlap sets the peak resident set.
func serviceMix() []*svcClass {
	var sweeps []string
	for i := 0; i < 4; i++ {
		axis := strings.Join([]string{"1", "2", "4", "8", "16"}[:2+i], ",")
		sweeps = append(sweeps, fmt.Sprintf(`{"kind":"bandwidth_cs","cs_counts":[%s],"bw_scales":[%s]}`, axis, axis))
	}
	m3d := flowBody("M3D", caseNumCS, casePlacementSeed)
	return []*svcClass{
		{name: "sweep", path: "/v1/sweep", weight: 2, fixed: sweeps},
		{name: "flow", path: "/v1/flow", weight: 2, fixed: []string{flowBody("2D", 1, casePlacementSeed), m3d}},
		{name: "yield", path: "/v1/yield", weight: 4,
			gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`{"flow":%s,"samples":%d,"batch":%d,"seed":%d}`,
					m3d, yieldStreamSamples, yieldStreamBatch, rng.Int63n(1<<40))
			},
			samples: yieldStreamSamples},
		{name: "dse", path: "/v1/dse", weight: 2,
			gen: func(rng *rand.Rand) string {
				return fmt.Sprintf(`{"seed":%d}`, rng.Int63n(1<<40))
			}},
	}
}

// checkStream requires a well-formed reply array whose last element,
// and only that one, is done, with no in-band error. With samples > 0
// the done element must also carry that many samples.
func checkStream(reply []byte, samples int) error {
	var ups []struct {
		Samples int    `json:"samples"`
		Done    bool   `json:"done"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(reply, &ups); err != nil {
		return fmt.Errorf("reply is not a JSON array: %w", err)
	}
	if len(ups) == 0 {
		return errors.New("empty stream")
	}
	for i, u := range ups {
		switch {
		case u.Error != "":
			return fmt.Errorf("element %d: %s", i, u.Error)
		case u.Done != (i == len(ups)-1):
			return fmt.Errorf("element %d of %d has done=%v", i, len(ups), u.Done)
		}
	}
	if last := ups[len(ups)-1]; samples > 0 && last.Samples != samples {
		return fmt.Errorf("stream ends with %d samples, want %d", last.Samples, samples)
	}
	return nil
}

// sample is one completed request.
type sample struct {
	class int
	lat   time.Duration
	ok    bool
}

// runService starts an in-process serve.Server on a loopback listener
// and drives it with serviceClients closed-loop clients. Set-up starts
// the server and primes every fixed body, the yield design and the DSE
// point cache; the timed region then sees cached sweep and flow reads,
// yield streams on the cached design, and DSE explorations that share
// the point cache. A traced run attaches an obs.Recorder to the server
// and wraps every request in a benchmark span.
func runService(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	mix := serviceMix()
	rng := rand.New(rand.NewSource(cfg.seed))

	t0 := time.Now()
	var rec *obs.Recorder
	scfg := serve.Config{Metrics: obs.NewRegistry()}
	if tr != nil {
		rec = obs.NewRecorder()
		scfg.Tracer = rec
	}
	srv := serve.New(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := errors.Join(hs.Shutdown(ctx), srv.Drain(ctx)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		<-served
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients},
	}
	defer client.CloseIdleConnections()

	var setupSpan *span
	if tr != nil {
		setupSpan = tr.start(0, nil, "service.setup")
	}
	warm := map[string][]byte{}
	var q qor
	for _, c := range mix {
		bodies := c.fixed
		if c.gen != nil {
			bodies = []string{c.gen(rng)}
		}
		for _, b := range bodies {
			status, reply, err := post(client, base+c.path, b)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
			if status/100 != 2 {
				return nil, fmt.Errorf("warm-up %s: status %d: %s", c.name, status, reply)
			}
			if c.gen == nil {
				warm[c.path+b] = reply
			} else if err := checkStream(reply, c.samples); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
			if c.name == "flow" {
				var fr serve.FlowResponse
				if err := json.Unmarshal(reply, &fr); err != nil {
					return nil, fmt.Errorf("warm-up flow reply: %w", err)
				}
				if fr.Style == "2D" {
					q.WL2D, q.Fmax2D = float64(fr.RoutedWLNM)/1e6, fr.FmaxHz/1e6
				} else {
					q.WLM3D, q.FmaxM3D = float64(fr.RoutedWLNM)/1e6, fr.FmaxHz/1e6
				}
			}
		}
	}
	setup := time.Since(t0)
	var from int64
	if tr != nil {
		setupSpan.end()
		tr.adopt(setupSpan, 0, rec.Spans())
		rec.Reset()
		from = tr.lastID()
	}

	reg := srv.Metrics()
	before := counters(reg)
	var deck []int
	for i, c := range mix {
		for w := 0; w < c.weight; w++ {
			deck = append(deck, i)
		}
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		rate    float64 // requests per second, summed over clients
		opID    int
	)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i < serviceClients; i++ {
		crng := rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			order := append([]int(nil), deck...)
			for k := 0; k%len(order) != 0 || time.Now().Before(deadline); k++ {
				if k%len(order) == 0 {
					crng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				ci := order[k%len(order)]
				c := mix[ci]
				var body string
				if c.gen != nil {
					body = c.gen(crng)
				} else {
					body = c.fixed[crng.Intn(len(c.fixed))]
				}
				var sp *span
				if tr != nil {
					mu.Lock()
					opID++
					op := opID
					mu.Unlock()
					sp = tr.start(op, nil, "service."+c.name)
				}
				t := time.Now()
				status, reply, err := post(client, base+c.path, body)
				lat := time.Since(t)
				if sp != nil {
					sp.end()
				}
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
				}
				if err == nil {
					if c.gen != nil {
						err = checkStream(reply, c.samples)
					} else if !bytes.Equal(reply, warm[c.path+body]) {
						err = errors.New("cached reply differs from its warm-up reply")
					}
				}
				if err != nil {
					mu.Lock()
					rep.fail("%s request: %v", c.name, err)
					mu.Unlock()
				}
				mine = append(mine, sample{class: ci, lat: lat, ok: err == nil})
			}
			elapsed := time.Since(start)
			mu.Lock()
			samples = append(samples, mine...)
			rate += float64(len(mine)) / elapsed.Seconds()
			mu.Unlock()
		}()
	}
	wg.Wait()
	after := counters(reg)
	if tr != nil {
		tr.adopt(nil, from, rec.Spans())
	}

	rep.attempted = len(samples)
	perClass := make([][]float64, len(mix))
	failed := make([]int, len(mix))
	var all []float64
	for _, s := range samples {
		if !s.ok {
			failed[s.class]++
			continue
		}
		ms := float64(s.lat.Nanoseconds()) / 1e6
		perClass[s.class] = append(perClass[s.class], ms)
		all = append(all, ms)
	}
	for i, c := range mix {
		n := len(perClass[i]) + failed[i]
		rep.classes = append(rep.classes, classCount{name: c.name, attempted: n, failed: failed[i]})
		pct, t := tail(perClass[i])
		fmt.Fprintf(os.Stderr, "perfbench: %-6s p50 %.3f ms, p%g %.3f ms over %d requests\n",
			c.name, median(perClass[i]), pct, t, len(perClass[i]))
		if tr != nil {
			rep.layer["serve."+c.name+".p50_ms"] = median(perClass[i])
			rep.layer["serve."+c.name+".tail_ms"] = t
			rep.layer["serve."+c.name+".n"] = float64(len(perClass[i]))
			rep.layer["serve."+c.name+".failed"] = float64(failed[i])
		}
	}
	pct, t := tail(all)
	fmt.Fprintf(os.Stderr, "perfbench: all    p50 %.3f ms, p%g %.3f ms over %d requests\n", median(all), pct, t, len(all))
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	if tr != nil {
		rep.layer["serve.memo.hit_ratio"] = ratio(d("serve.memo.hits"), d("serve.memo.misses"))
		rep.layer["dse.memo.hit_ratio"] = ratio(d("dse.memo.hits"), d("dse.memo.misses"))
		rep.layer["dse.evals"] = d("dse.evals")
		rep.layer["serve.shed"] = d("serve.shed")
		return rep, nil
	}
	rep.e2e["setup_s"] = setup.Seconds()
	rep.e2e["op_p50_ms"] = median(all)
	rep.e2e["op_tail_ms"] = t
	rep.e2e["work_per_s"] = rate
	q.put(rep.e2e)
	return rep, nil
}

// ratio is hits over all lookups (0 with none).
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// counters snapshots the registry counters the service metrics use.
func counters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{"serve.memo.hits", "serve.memo.misses", "dse.memo.hits", "dse.memo.misses", "dse.evals", "serve.shed"} {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

// post sends one JSON request and reads the whole reply.
func post(c *http.Client, url, body string) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, reply, nil
}
