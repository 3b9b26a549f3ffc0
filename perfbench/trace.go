package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// span is one traced call: its name, its parent (-1 for a root), its wall
// interval in nanoseconds since the tracer's epoch and its simulated
// interval on the calling rank's clock. step is the index of the root
// span the call ran under, so per-step sums need no tree walk.
type span struct {
	name       string
	parent     int32
	step       int32
	start, end int64
	sim0, sim1 float64
}

// rankTrace is one rank's span buffer. Only the goroutine acting for the
// rank writes it, and it is read after the cluster Run that wrote it has
// returned, so it needs no lock. A nil *rankTrace records nothing.
type rankTrace struct {
	epoch time.Time
	spans []span
	open  []int32
	roots int32
}

// begin opens a span under the innermost open one and returns its index.
func (t *rankTrace) begin(name string, sim float64) int32 {
	if t == nil {
		return -1
	}
	parent, step := int32(-1), t.roots
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		step = t.spans[parent].step
	} else {
		t.roots++
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, step: step,
		start: int64(time.Since(t.epoch)), sim0: sim})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *rankTrace) end(i int32, sim float64) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	s.sim1 = sim
	t.open = t.open[:len(t.open)-1]
}

// tracer holds one rank buffer per simulated rank of one cluster (or one
// buffer for a serial loop), all sharing an epoch.
type tracer struct {
	name  string
	ranks []*rankTrace
	rolls []rollup // per-rank rollups, built on the first series call
}

func newTracer(name string, ranks int, epoch time.Time) *tracer {
	t := &tracer{name: name, ranks: make([]*rankTrace, ranks)}
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{epoch: epoch, spans: make([]span, 0, 4096)}
	}
	return t
}

// rank returns rank r's buffer; a nil tracer hands out nil buffers.
func (t *tracer) rank(r int) *rankTrace {
	if t == nil {
		return nil
	}
	return t.ranks[r]
}

// reset drops every recorded span.
func (t *tracer) reset() {
	for _, rt := range t.ranks {
		rt.spans, rt.roots = rt.spans[:0], 0
	}
}

// rollup is one rank's spans folded per root span: each root's name and,
// for every span name, the wall milliseconds, simulated seconds and self
// milliseconds (duration minus direct children) summed under that root.
type rollup struct {
	root             []string
	wall, sim, selfT []map[string]float64
}

func (t *rankTrace) rollup() rollup {
	var r rollup
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childNS[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.parent < 0 {
			r.root = append(r.root, s.name)
			r.wall = append(r.wall, map[string]float64{})
			r.sim = append(r.sim, map[string]float64{})
			r.selfT = append(r.selfT, map[string]float64{})
		}
		d := s.end - s.start
		r.wall[s.step][s.name] += float64(d) / 1e6
		r.sim[s.step][s.name] += s.sim1 - s.sim0
		r.selfT[s.step][s.name] += float64(d-childNS[i]) / 1e6
	}
	return r
}

// pick selects which of a rollup's sums a series reads.
type pick func(r *rollup) []map[string]float64

func wallMS(r *rollup) []map[string]float64 { return r.wall }
func simS(r *rollup) []map[string]float64   { return r.sim }
func selfMS(r *rollup) []map[string]float64 { return r.selfT }

// series returns one value per root span called root, in order: the sum of
// the spans called name under it, averaged over ranks. Every rank runs the
// same loop, so the ranks' roots line up.
func (t *tracer) series(root, name string, p pick) []float64 {
	if t.rolls == nil {
		for _, rt := range t.ranks {
			t.rolls = append(t.rolls, rt.rollup())
		}
	}
	var out []float64
	for ri := range t.rolls {
		r := &t.rolls[ri]
		vals := p(r)
		k := 0
		for i, rn := range r.root {
			if rn != root {
				continue
			}
			if k == len(out) {
				out = append(out, 0)
			}
			out[k] += vals[i][name] / float64(len(t.ranks))
			k++
		}
	}
	return out
}

// tracedLayer wraps a parallel.Layer with a forward and a backward span.
// It adds no arithmetic and no simulated time, so a traced model computes
// bit for bit what the bare model computes.
type tracedLayer struct {
	parallel.Layer
	fwd, bwd string
	w        *dist.Worker
	rt       *rankTrace
}

func (l *tracedLayer) Forward(x *tensor.Matrix) *tensor.Matrix {
	i := l.rt.begin(l.fwd, l.w.Clock())
	y := l.Layer.Forward(x)
	l.rt.end(i, l.w.Clock())
	return y
}

func (l *tracedLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	i := l.rt.begin(l.bwd, l.w.Clock())
	dx := l.Layer.Backward(dy)
	l.rt.end(i, l.w.Clock())
	return dx
}

// tracedFamily embeds a parallel.Family and traces the two family calls
// the model makes outside its layers: the pooled-feature gather and the
// deferred gradient drain.
type tracedFamily struct {
	parallel.Family
	rt *rankTrace
}

func (f *tracedFamily) GatherPooled(local *tensor.Matrix) *tensor.Matrix {
	w := f.Worker()
	i := f.rt.begin("gather", w.Clock())
	out := f.Family.GatherPooled(local)
	f.rt.end(i, w.Clock())
	return out
}

func (f *tracedFamily) DrainGradients() {
	w := f.Worker()
	i := f.rt.begin("drain", w.Clock())
	f.Family.DrainGradients()
	f.rt.end(i, w.Clock())
}

// traceModel installs the span wrappers on a model's exported seams: the
// embedding, every block (and, for parallel.Block, its attention, MLP and
// layer norms) and the family. The head stays bare; its time counts as the
// step's self time.
func traceModel(m *vit.DistModel, rt *rankTrace) {
	w := m.F.Worker()
	m.Embed = &tracedLayer{Layer: m.Embed, fwd: "embed_fwd", bwd: "embed_bwd", w: w, rt: rt}
	for i, b := range m.Blocks {
		if pb, ok := b.(*parallel.Block); ok {
			pb.Attn = &tracedLayer{Layer: pb.Attn, fwd: "attn_fwd", bwd: "attn_bwd", w: w, rt: rt}
			pb.Mlp = &tracedLayer{Layer: pb.Mlp, fwd: "mlp_fwd", bwd: "mlp_bwd", w: w, rt: rt}
			pb.Ln1 = &tracedLayer{Layer: pb.Ln1, fwd: "ln", bwd: "ln", w: w, rt: rt}
			pb.Ln2 = &tracedLayer{Layer: pb.Ln2, fwd: "ln", bwd: "ln", w: w, rt: rt}
		}
		m.Blocks[i] = &tracedLayer{Layer: b, fwd: "block_fwd", bwd: "block_bwd", w: w, rt: rt}
	}
	m.F = &tracedFamily{Family: m.F, rt: rt}
}

// writeChromeTrace writes every tracer's spans as Chrome trace events (one
// process per tracer, one thread per rank; open the file in Perfetto).
func writeChromeTrace(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		TS   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		PID  int                `json:"pid"`
		TID  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		PID  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	fmt.Fprint(bw, `{"traceEvents":[`)
	first := true
	emit := func(v any) error {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		return enc.Encode(v)
	}
	for pid, t := range tracers {
		if err := emit(meta{Name: "process_name", Ph: "M", PID: pid, Args: map[string]string{"name": t.name}}); err != nil {
			f.Close()
			return err
		}
		for tid, rt := range t.ranks {
			for _, s := range rt.spans {
				ev := event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
					PID: pid, TID: tid, Args: map[string]float64{"sim_s": s.sim1 - s.sim0}}
				if err := emit(ev); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
