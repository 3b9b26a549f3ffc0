package tables

import (
	"fmt"
	"strings"

	"repro/internal/dist"
)

// OverlapPoint compares the cost model's predicted hidden-communication
// fraction for a double-buffered SUMMA schedule against what the simulated
// run actually measured (dist.Cluster.Overlap) over a full Transformer
// layer forward+backward.
type OverlapPoint struct {
	Row Row
	// PredictedFrac is dist.HiddenFraction evaluated on the per-iteration
	// comm and GEMM time of the layer's dominant multiply (the h → 4h MLP
	// projection): min(comm, compute)/comm.
	PredictedFrac float64
	// MeasuredFrac is hidden/total simulated comm seconds across all ranks
	// and all collectives of the phase — layer norms, biases and gradient
	// sync included, which is why it needn't match the prediction exactly.
	MeasuredFrac float64
	// HiddenSeconds and TotalCommSeconds are the measured numerator and
	// denominator.
	HiddenSeconds, TotalCommSeconds float64
}

// OverlapStudy runs Tesseract rows in phantom mode and reports predicted
// versus measured communication overlap for each. Rows from other schemes
// are skipped (they have no pipelined SUMMA schedule to predict).
func OverlapStudy(rows []Row, opts Options) ([]OverlapPoint, error) {
	opts = opts.withDefaults()
	var out []OverlapPoint
	for _, row := range rows {
		if row.Scheme != Tesseract {
			continue
		}
		pt, err := overlapRow(row, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func overlapRow(row Row, opts Options) (OverlapPoint, error) {
	c, runners, err := newRunners(row, opts)
	if err != nil {
		return OverlapPoint{}, err
	}
	c.ResetClocks()
	if err := c.Run(func(w *dist.Worker) error {
		runners[w.Rank()].forward()
		runners[w.Rank()].backward()
		return nil
	}); err != nil {
		return OverlapPoint{}, err
	}
	hidden, total := c.Overlap()
	pt := OverlapPoint{Row: row, HiddenSeconds: hidden, TotalCommSeconds: total}
	if total > 0 {
		pt.MeasuredFrac = hidden / total
	}

	// Prediction: one iteration of the MLP's h → 4h forward SUMMA. The A
	// panel ([b·s/(dq), h/q]) dominates the broadcasts; the per-iteration
	// GEMM multiplies it against the resident [h/q, 4h/q] block.
	cost := opts.Cost
	q, d := row.Q, row.D
	rowsLocal := float64(row.Batch) * float64(opts.SeqLen) / float64(q*d)
	hq := float64(row.Hidden) / float64(q)
	panelBytes := int64(8 * rowsLocal * hq)
	interNode := q > opts.GPUsPerNode // a grid row larger than a node spans nodes
	comm := cost.BroadcastSeconds(q, panelBytes, interNode)
	compute := cost.GEMMSeconds(rowsLocal, 4*hq, hq)
	pt.PredictedFrac = dist.HiddenFraction(comm, compute)
	return pt, nil
}

// FormatOverlap renders an overlap study.
func FormatOverlap(points []OverlapPoint) string {
	var b strings.Builder
	b.WriteString("Communication overlap: double-buffered SUMMA, predicted vs measured\n")
	fmt.Fprintf(&b, "%-10s %5s | %10s %10s | %12s %12s\n",
		"shape", "#GPUs", "pred frac", "meas frac", "hidden(s)", "comm(s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %5d | %10.3f %10.3f | %12.5f %12.5f\n",
			p.Row.Shape(), p.Row.GPUs, p.PredictedFrac, p.MeasuredFrac, p.HiddenSeconds, p.TotalCommSeconds)
	}
	return b.String()
}
