package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/serve"
)

const serveWhy = "open loop of seeded Poisson arrivals through serve.Server on tesseract [2,2,2] and megatron [4] at fixed rates from light load to past saturation: forward-only layers, admission, batching"

// serveLayouts are the two layouts serve-open serves.
var serveLayouts = []parallel.Layout{
	{Family: "tesseract", Q: 2, D: 2},
	{Family: "megatron", Ranks: 4},
}

// serveRates are the fixed offered rates in requests per simulated second,
// from light load to past both layouts' saturation (tesseract [2,2,2]
// saturates near 168k, megatron [4] near 280k).
var serveRates = []float64{60e3, 120e3, 200e3, 240e3, 360e3}

// serveConfig batches up to 16 requests, co-batches for at most 200µs and
// queues deep enough that no trace is ever rejected: past saturation the
// backlog, and with it the p99, grows instead.
var serveConfig = serve.Config{MaxBatch: 16, LatencyBudget: 200e-6, QueueDepth: 4096}

// A fixed rate is sustained (serve.max_rps) when no request is rejected,
// the simulated p99 stays within p99Limit (the 200µs co-batching budget
// plus about one and a half full-batch forwards) and the trace completes
// at least minServedShare of the offered rate, so no backlog grows.
const (
	p99Limit       = 350e-6
	minServedShare = 0.9
)

// serveTrace is one fixed trace: a layout index and its arrival process.
type serveTrace struct {
	layout   int
	headline bool
	arrivals serve.ArrivalConfig
}

// serveSet is the servers one set-up builds and the traces they replay.
type serveSet struct {
	servers   []*serve.Server
	saturated []float64 // burst-probe throughput per layout
	traces    []serveTrace
}

func newServeSet(cfg Config) (*serveSet, error) {
	ds, mcfg, tc := trainInputs(cfg.Seed, cfg.Size)
	set := &serveSet{}
	for li, l := range serveLayouts {
		srv, err := serve.NewServer(l, ds, mcfg, tc, serveConfig)
		if err != nil {
			return nil, err
		}
		if err := srv.TrainSteps(2); err != nil {
			return nil, err
		}
		probe, err := srv.Serve(serve.Saturated(16 * serveConfig.MaxBatch))
		if err != nil {
			return nil, err
		}
		set.servers = append(set.servers, srv)
		set.saturated = append(set.saturated, probe.Throughput())
		headline := -1 // the highest fixed rate below saturation
		for ri, rate := range serveRates {
			if rate < probe.Throughput() {
				headline = ri
			}
		}
		if headline < 0 {
			return nil, fmt.Errorf("%s saturates at %.0f req/s, below every fixed rate", l, probe.Throughput())
		}
		for ri, rate := range serveRates {
			n := cfg.Size.SweepN
			if ri == headline {
				n = cfg.Size.HeadlineN
			}
			set.traces = append(set.traces, serveTrace{layout: li, headline: ri == headline,
				arrivals: serve.ArrivalConfig{N: n, Rate: rate, Seed: cfg.Seed*1000 + uint64(li*len(serveRates)+ri) + 1}})
		}
	}
	return set, nil
}

// serveRecord is what one serve-open execution observed. A round replays
// every trace once.
type serveRecord struct {
	setups  []float64
	walls   []float64 // per round
	perReq  []float64 // per trace replay: wall seconds per served request
	batchMS []float64 // per trace replay: wall milliseconds per batch
	mallocs uint64
	served  int
	sent    int
	set     *serveSet
	first   []*serve.Report // the warm-up replay's reports, trace order
	drift   error
	tr      *tracer
}

func runServe(cfg Config, traced bool, rounds int) (record, error) {
	rec := &serveRecord{}
	if traced {
		rec.tr = newTracer("serve-open", 1, time.Now())
	}
	setups := cfg.Size.Setups
	if traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		rec.set = nil
		runtime.GC()
		t0 := time.Now()
		set, err := newServeSet(cfg)
		if err != nil {
			return nil, err
		}
		rec.setups = append(rec.setups, time.Since(t0).Seconds())
		rec.set = set
	}
	// One untimed replay of every trace: its reports are the reference
	// every measured replay must equal, and the source of the simulated
	// metrics. It also grows the servers' pools to the traces' batch
	// shapes, so the measured rounds allocate alike however many run.
	for _, tr := range rec.set.traces {
		rep, err := rec.set.servers[tr.layout].Serve(tr.arrivals)
		if err != nil {
			return nil, err
		}
		rec.first = append(rec.first, rep)
	}
	rt := rec.tr.rank(0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	for r := 0; keepGoing(r, rounds, start, cfg.Measure); r++ {
		t0 := time.Now()
		root := rt.begin("round", 0)
		for ti, tr := range rec.set.traces {
			ts := time.Now()
			sp := rt.begin("serve", 0)
			rep, err := rec.set.servers[tr.layout].Serve(tr.arrivals)
			rt.end(sp, 0)
			if err != nil {
				return nil, err
			}
			d := time.Since(ts).Seconds()
			rec.perReq = append(rec.perReq, d/float64(rep.Completed))
			rec.batchMS = append(rec.batchMS, 1e3*d/float64(len(rep.Batches)))
			rec.served += rep.Completed
			rec.sent += len(rep.Requests)
			if rec.drift == nil && !sameReport(rep, rec.first[ti]) {
				rec.drift = fmt.Errorf("round %d trace %d replayed differently from the warm-up replay", r, ti)
			}
		}
		rt.end(root, 0)
		rec.walls = append(rec.walls, time.Since(t0).Seconds())
	}
	runtime.ReadMemStats(&ms)
	rec.mallocs = ms.Mallocs - mallocs0
	return rec, nil
}

func (r *serveRecord) rounds() int           { return len(r.walls) }
func (r *serveRecord) roundWalls() []float64 { return r.walls }

func (r *serveRecord) tracers() []*tracer {
	if r.tr == nil {
		return nil
	}
	return []*tracer{r.tr}
}

// checkReport requires every sent request to be either served or
// rejected, and ordered latency percentiles.
func checkReport(rep *serve.Report, sent int) error {
	if len(rep.Requests) != sent || rep.Completed+rep.Rejected != sent || rep.Admitted != rep.Completed {
		return fmt.Errorf("sent %d, recorded %d, served %d, rejected %d, admitted %d",
			sent, len(rep.Requests), rep.Completed, rep.Rejected, rep.Admitted)
	}
	if p50, p95, p99 := rep.P50(), rep.P95(), rep.P99(); !(p50 <= p95 && p95 <= p99) {
		return fmt.Errorf("percentiles out of order: p50 %g p95 %g p99 %g", p50, p95, p99)
	}
	return nil
}

func (r *serveRecord) checks(res *Result) {
	var err error
	for i, rep := range r.first {
		if e := checkReport(rep, r.set.traces[i].arrivals.N); e != nil && err == nil {
			err = fmt.Errorf("trace %d: %w", i, e)
		}
	}
	res.check("serve-open: sent = served + rejected and p50 <= p95 <= p99 on every trace", err)
	res.check("serve-open: every replay of a trace is bitwise the first", r.drift)
}

// headlineLatencies pools the simulated latencies of the requests served
// at each layout's headline rate, sorted.
func (r *serveRecord) headlineLatencies() []float64 {
	var out []float64
	for i, tr := range r.set.traces {
		if !tr.headline {
			continue
		}
		for _, q := range r.first[i].Requests {
			if !q.Rejected {
				out = append(out, q.Latency())
			}
		}
	}
	sort.Float64s(out)
	return out
}

// nearestRank is the p-quantile of an ascending sample by the nearest-rank
// rule serve.Report uses.
func nearestRank(s []float64, p float64) float64 {
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func (r *serveRecord) endToEnd(res *Result) {
	res.Attempted += r.sent
	res.Failed += r.sent - r.served
	p50 := medianOf(r.perReq)
	lat := r.headlineLatencies()
	res.add("setup_s", medianOf(r.setups), r.setups, "dataset, two servers, two training steps and a burst probe each")
	res.add("wall_ops_per_s", float64(r.served)/sum(r.walls), nil, fmt.Sprintf("served requests per second over %d rounds of %d traces", len(r.walls), len(r.set.traces)))
	res.add("wall_op_s_p50", p50, r.perReq, "per served request, per trace replay")
	res.add("go_allocs_per_op", float64(r.mallocs)/float64(r.served), nil, "Go mallocs per served request")
	res.add("ok_frac", 1, nil, "served requests and passed checks over those attempted; rejections fail")
	res.add("sim_op_s_p50", nearestRank(lat, 0.5), nil, fmt.Sprintf("simulated latency from due time, p50 of %d requests at each layout's highest fixed rate below saturation", len(lat)))
	res.add("sim_op_s_tail", nearestRank(lat, 0.99), nil, fmt.Sprintf("simulated latency from due time, p99 of the same %d requests", len(lat)))
	res.note("arrivals are precomputed from the seed, so the generator is never late (0 s)")
	for li, l := range serveLayouts {
		res.note("%s saturates at %.0f simulated req/s (burst probe)", l, r.set.saturated[li])
	}
	for i, tr := range r.set.traces {
		rep := r.first[i]
		res.note("%s at %.0f req/s: %d requests, %d rejected, served %.0f req/s, mean batch %.2f, simulated p50 %.4g s p99 %.4g s",
			serveLayouts[tr.layout], tr.arrivals.Rate, len(rep.Requests), rep.Rejected, rep.Throughput(), rep.MeanBatch(), rep.P50(), rep.P99())
	}
}

func (r *serveRecord) layers(res *Result) {
	var waits []float64
	var served, batches int
	maxRPS := make([]float64, len(serveLayouts))
	for i, tr := range r.set.traces {
		rep := r.first[i]
		served += rep.Completed
		batches += len(rep.Batches)
		if tr.headline {
			for _, q := range rep.Requests {
				if !q.Rejected {
					waits = append(waits, q.Wait())
				}
			}
		}
		sustained := rep.Rejected == 0 && rep.P99() <= p99Limit && rep.Throughput() >= minServedShare*tr.arrivals.Rate
		if sustained && tr.arrivals.Rate > maxRPS[tr.layout] {
			maxRPS[tr.layout] = tr.arrivals.Rate
		}
	}
	res.add("serve.batch_wall_ms", medianOf(r.batchMS), r.batchMS, "wall per executed batch, per trace replay")
	res.add("serve.mean_batch", float64(served)/float64(batches), nil, "requests per batch over every trace")
	res.add("serve.queue_wait_p50_s", medianOf(waits), nil, "co-batching wait at the headline rates")
	for li, l := range serveLayouts {
		res.add("serve.max_rps."+l.Family, maxRPS[li], nil, fmt.Sprintf("highest fixed rate served at %.0f%% or more with p99 <= %g s and no rejection", 100*minServedShare, p99Limit))
	}
}

func (r *serveRecord) parity(other record) error {
	t, ok := other.(*serveRecord)
	if !ok {
		return fmt.Errorf("parity against a %T", other)
	}
	for i := range r.first {
		if !sameReport(r.first[i], t.first[i]) {
			return fmt.Errorf("trace %d: traced replay served differently", i)
		}
	}
	return nil
}

// sameReport compares two serving reports' requests, batches and counts
// exactly.
func sameReport(a, b *serve.Report) bool {
	return reflect.DeepEqual(a.Requests, b.Requests) && reflect.DeepEqual(a.Batches, b.Batches) &&
		a.Admitted == b.Admitted && a.Rejected == b.Rejected && a.Completed == b.Completed &&
		a.SimSeconds == b.SimSeconds
}
