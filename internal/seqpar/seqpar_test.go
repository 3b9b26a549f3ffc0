package seqpar

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The family's blocks are megatron's layers in the sequence-parallel style;
// their parity, collective-count and clock tests run in internal/megatron
// over both styles. This file covers what the family adds.

func TestShardLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(1)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			gws := testutil.NewCollector()
			gbs := testutil.NewCollector()
			testutil.Run(t, tp, func(w *dist.Worker) error {
				f, err := parallel.New(w, parallel.Layout{Family: "seqpar", Ranks: tp})
				if err != nil {
					return err
				}
				l := f.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
				y := l.Forward(f.Distribute(x))
				dx := l.Backward(f.Distribute(dy))
				f.DrainGradients()
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				ps := l.Params()
				gws.Put(w.Rank(), ps[0].Grad)
				gbs.Put(w.Rank(), ps[1].Grad)
				return nil
			})
			for r := 0; r < tp; r++ {
				testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
				testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
				// Gradients sum over every rank's row shard, so after the
				// drain they match the serial full-batch gradients.
				testutil.CheckClose(t, "dW", gws.Get(r), ref.W.Grad, 1e-9)
				testutil.CheckClose(t, "dB", gbs.Get(r), ref.B.Grad, 1e-9)
			}
		})
	}
}

func TestLayoutRowShards(t *testing.T) {
	l, err := parallel.Validate(parallel.Layout{Family: "seqpar", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RowShards(); got != 4 {
		t.Fatalf("seqpar [4] RowShards = %d, want 4", got)
	}
}
