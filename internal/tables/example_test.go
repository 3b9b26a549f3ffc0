package tables_test

import (
	"fmt"
	"log"

	"repro/internal/tables"
)

// ExampleRunRow is a compact strong/weak-scaling sweep on the harness that
// regenerates the paper's Tables 1 and 2, at a reduced sequence length so
// it runs at once. It times arbitrary mesh shapes and shows how the depth
// parameter d trades broadcast volume against depth synchronisation
// (§3.1).
func ExampleRunRow() {
	opts := tables.Options{SeqLen: 128}

	fmt.Println("Strong scaling: fixed problem (batch 16, hidden 3072, 64 heads)")
	fmt.Printf("%-12s %-9s %6s | %9s %9s %12s\n", "scheme", "shape", "#GPUs", "fwd(s)", "bwd(s)", "1/(fwd+bwd)")
	rows := []tables.Row{
		{Scheme: tables.Megatron, GPUs: 16, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Megatron, GPUs: 64, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Optimus, GPUs: 16, Q: 4, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Optimus, GPUs: 64, Q: 8, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Tesseract, GPUs: 16, Q: 4, D: 1, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Tesseract, GPUs: 32, Q: 4, D: 2, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Tesseract, GPUs: 64, Q: 4, D: 4, Batch: 16, Hidden: 3072, Heads: 64},
		{Scheme: tables.Tesseract, GPUs: 64, Q: 8, D: 1, Batch: 16, Hidden: 3072, Heads: 64},
	}
	for _, row := range rows {
		res, err := tables.RunRow(row, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-9s %6d | %9.4f %9.4f %12.2f\n",
			row.Scheme, row.Shape(), row.GPUs, res.Forward, res.Backward, res.Throughput)
	}

	fmt.Println("\nDepth sweep at q = 4 (same problem): deeper meshes shrink the per-layer")
	fmt.Println("broadcast panels by d at the price of a rare depth all-reduce")
	points, err := tables.DepthAblation(4, []int{1, 2, 4}, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tables.FormatAblation(points))

	fmt.Println("\nWeak scaling: problem grows with the mesh (batch = 12·d·q, hidden = 512·q)")
	fmt.Printf("%-9s %6s %6s %6s | %9s %9s\n", "shape", "#GPUs", "batch", "hidden", "fwd(s)", "bwd(s)")
	for _, shape := range []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		row := tables.Row{
			Scheme: tables.Tesseract, GPUs: shape.q * shape.q * shape.d,
			Q: shape.q, D: shape.d,
			Batch:  12 * shape.d * shape.q,
			Hidden: 512 * shape.q,
			Heads:  16 * shape.q,
		}
		res, err := tables.RunRow(row, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %6d %6d %6d | %9.4f %9.4f\n",
			row.Shape(), row.GPUs, row.Batch, row.Hidden, res.Forward, res.Backward)
	}
	// Output:
	// Strong scaling: fixed problem (batch 16, hidden 3072, 64 heads)
	// scheme       shape      #GPUs |    fwd(s)    bwd(s)  1/(fwd+bwd)
	// Megatron-LM  [16]          16 |    0.0304    0.0610        10.94
	// Megatron-LM  [64]          64 |    0.0322    0.0645        10.34
	// Optimus      [4,4]         16 |    0.0726    0.2182         3.44
	// Optimus      [8,8]         64 |    0.0546    0.1692         4.47
	// Tesseract    [4,4,1]       16 |    0.0726    0.2182         3.44
	// Tesseract    [4,4,2]       32 |    0.0726    0.2180         3.44
	// Tesseract    [4,4,4]       64 |    0.0726    0.2179         3.44
	// Tesseract    [8,8,1]       64 |    0.0546    0.1692         4.47
	//
	// Depth sweep at q = 4 (same problem): deeper meshes shrink the per-layer
	// broadcast panels by d at the price of a rare depth all-reduce
	// Depth ablation (strong scaling problem, hidden 3072, batch 16)
	// shape      #GPUs |    fwd(s)    bwd(s) thru(seq/s)
	// [4,4,1]       16 |    0.0726    0.2182     3.4383
	// [4,4,2]       32 |    0.0726    0.2180     3.4411
	// [4,4,4]       64 |    0.0726    0.2179     3.4425
	//
	// Weak scaling: problem grows with the mesh (batch = 12·d·q, hidden = 512·q)
	// shape      #GPUs  batch hidden |    fwd(s)    bwd(s)
	// [1,1,1]        1     12    512 |    0.0000    0.0001
	// [2,2,1]        4     24   1024 |    0.0004    0.0015
	// [2,2,2]        8     48   1024 |    0.0004    0.0048
	// [4,4,2]       32     96   2048 |    0.0324    0.0978
	// [4,4,4]       64    192   2048 |    0.0324    0.0978
}
