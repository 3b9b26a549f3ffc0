package tables

import (
	"fmt"
	"strings"

	"repro/internal/cannon"
	"repro/internal/claims"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/solomonik"
	"repro/internal/summa"
	"repro/internal/tensor"
)

// AblationPoint is one depth setting in the depth-sweep ablation.
type AblationPoint struct {
	// Q and D are the mesh dimensions of the point ([q, q, d]).
	Q, D int
	// GPUs is the resulting processor count q²·d.
	GPUs int
	// Result carries the measured timing columns.
	Result
}

// DepthAblation sweeps the Tesseract depth at fixed q for the Table 1
// problem (batch 16, hidden 3072, 64 heads), isolating the paper's central
// trade: deeper meshes shrink the SUMMA panels broadcast inside each layer
// at the cost of the (rare) depth all-reduce.
func DepthAblation(q int, depths []int, opts Options) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, d := range depths {
		row := Row{Scheme: Tesseract, GPUs: q * q * d, Q: q, D: d, Batch: 16, Hidden: 3072, Heads: 64}
		res, err := RunRow(row, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Q: q, D: d, GPUs: row.GPUs, Result: res})
	}
	return out, nil
}

// FormatAblation renders a depth sweep.
func FormatAblation(points []AblationPoint) string {
	var b strings.Builder
	b.WriteString("Depth ablation (strong scaling problem, hidden 3072, batch 16)\n")
	fmt.Fprintf(&b, "%-10s %5s | %9s %9s %10s\n", "shape", "#GPUs", "fwd(s)", "bwd(s)", "thru(seq/s)")
	for _, p := range points {
		fmt.Fprintf(&b, "[%d,%d,%d]    %5d | %9.4f %9.4f %10.4f\n", p.Q, p.Q, p.D, p.GPUs, p.Forward, p.Backward, p.Throughput)
	}
	return b.String()
}

// MemoryPoint compares per-GPU memory for a single [a,b]·[b,c] multiply.
type MemoryPoint struct {
	// Label names the arrangement, e.g. "Tesseract [4,4,2]".
	Label string
	// GPUs is the processor count of the arrangement.
	GPUs int
	// FormulaElems is the Eq. 7-10 element count per processor.
	FormulaElems float64
	// MeasuredElems is what the implementation actually holds.
	MeasuredElems int
}

// MemoryStudy evaluates Eqs. 7-10 and cross-checks them against the element
// counts the implementations actually hold per processor (A block + B block
// + C block for Tesseract; replicated input + weight/output shards for
// Megatron-LM).
func MemoryStudy(a, b, c int) []MemoryPoint {
	var out []MemoryPoint
	for _, cfg := range []struct{ q, d int }{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		p := cfg.q * cfg.q * cfg.d
		measured := a/(cfg.d*cfg.q)*(b/cfg.q) + b/cfg.q*(c/cfg.q) + a/(cfg.d*cfg.q)*(c/cfg.q)
		out = append(out, MemoryPoint{
			Label:         fmt.Sprintf("Tesseract [%d,%d,%d]", cfg.q, cfg.q, cfg.d),
			GPUs:          p,
			FormulaElems:  claims.MemoryTesseract(float64(a), float64(b), float64(c), float64(cfg.q), float64(cfg.d)),
			MeasuredElems: measured,
		})
	}
	for _, p := range []int{4, 8, 32, 64} {
		measured := a*b + b*(c/p) + a*(c/p)
		out = append(out, MemoryPoint{
			Label:         fmt.Sprintf("Megatron-LM [%d]", p),
			GPUs:          p,
			FormulaElems:  claims.MemoryMegatron(float64(a), float64(b), float64(c), float64(p)),
			MeasuredElems: measured,
		})
	}
	return out
}

// FormatMemory renders the memory study.
func FormatMemory(a, b, c int, points []MemoryPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-GPU memory for one [%d,%d]x[%d,%d] multiply (Eqs. 7-10), in elements\n", a, b, b, c)
	fmt.Fprintf(&sb, "%-22s %5s %14s %14s\n", "arrangement", "#GPUs", "formula", "measured")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-22s %5d %14.0f %14d\n", p.Label, p.GPUs, p.FormulaElems, p.MeasuredElems)
	}
	return sb.String()
}

// TransmissionPoint compares the paper's closed-form transfer counts with
// the block-message counts our implementations actually generate for one
// matrix multiplication at p = 64.
type TransmissionPoint struct {
	// Algorithm names the scheme and its arrangement.
	Algorithm string
	// Formula is the paper's closed-form transfer count.
	Formula float64
	// MeasuredBlocks counts the pairwise block transfers our
	// implementation generated.
	MeasuredBlocks int64
	// RatioToTesseract is Formula divided by Tesseract's formula count.
	RatioToTesseract float64
}

// TransmissionStudy reproduces the §1 claim (Cannon 31.5×, 2.5-D 3.75× the
// communication of Tesseract at 64 GPUs). The formula column uses the
// paper's expressions; the measured column counts every pairwise block
// transfer in our implementations (broadcast/reduce over n ranks = n−1
// transfers, all-reduce = 2(n−1)), which uses a finer-grained convention
// than the paper's per-operation count and is reported for transparency.
func TransmissionStudy() ([]TransmissionPoint, error) {
	const p = 64

	countMessages := func(shape mesh.Shape, run func(pr *mesh.Proc) error) (int64, error) {
		c := dist.New(dist.Config{WorldSize: shape.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			return run(mesh.NewProc(w, shape))
		}); err != nil {
			return 0, err
		}
		return c.Stats().Messages, nil
	}

	cannonCount, err := countMessages(mesh.Shape{Q: 8, D: 1}, func(pr *mesh.Proc) error {
		cannon.MulAB(pr, tensor.NewPhantom(8, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	soloCount, err := countMessages(mesh.Shape{Q: 4, D: 4}, func(pr *mesh.Proc) error {
		solomonik.MulAB(pr, tensor.NewPhantom(8, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	tessCount, err := countMessages(mesh.Shape{Q: 4, D: 4}, func(pr *mesh.Proc) error {
		summa.MulAB(pr, tensor.NewPhantom(4, 8), tensor.NewPhantom(8, 8))
		return nil
	})
	if err != nil {
		return nil, err
	}

	tess := claims.TesseractTransfers(p)
	return []TransmissionPoint{
		{"Cannon [8,8]", claims.CannonTransfers(p), cannonCount, claims.CannonTransfers(p) / tess},
		{"2.5-D [4,4,4]", claims.Solomonik25DTransfers(p), soloCount, claims.Solomonik25DTransfers(p) / tess},
		{"Tesseract [4,4,4]", tess, tessCount, 1},
	}, nil
}

// FormatTransmissions renders the transmission study.
func FormatTransmissions(points []TransmissionPoint) string {
	var b strings.Builder
	b.WriteString("Inter-GPU transfers for one matmul at p = 64 (paper §1/§3.1)\n")
	fmt.Fprintf(&b, "%-18s %14s %16s %18s\n", "algorithm", "paper formula", "measured blocks", "formula/Tesseract")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %14.1f %16d %18.2f\n", p.Algorithm, p.Formula, p.MeasuredBlocks, p.RatioToTesseract)
	}
	return b.String()
}
