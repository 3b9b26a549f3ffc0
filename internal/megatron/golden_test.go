package megatron_test

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/dist"
	_ "repro/internal/megatron" // registers "megatron"
	"repro/internal/parallel"
	_ "repro/internal/seqpar" // registers "seqpar"
	"repro/internal/tensor"
)

// TestGoldenBlockClocks pins one block forward+backward of megatron [4] and
// seqpar [4], real and phantom, at the unit-test shape and at the
// train-real benchmark shape: the simulated clock to the bit, the traffic
// per collective kind, and the peak live workspace bytes of any rank. A
// refactor of the two families' layers must reproduce all three exactly.
func TestGoldenBlockClocks(t *testing.T) {
	type shape struct{ h, heads, seq, rows int }
	unit := shape{8, 4, 2, 8}
	train := shape{64, 4, 16, 256}
	type ops map[string][2]int64 // calls, bytes
	cases := []struct {
		family  string
		sh      shape
		phantom bool
		clock   string
		ops     ops
		peak    int64
	}{
		{"megatron", unit, false, "7085371797193409p-67", ops{"allreduce": {4, 12288}}, 7552},
		{"megatron", unit, true, "7085371797193407p-67", ops{"allreduce": {4, 12288}}, 0},
		{"megatron", train, false, "7560171634759228p-67", ops{"allreduce": {4, 3145728}}, 1839104},
		{"megatron", train, true, "7560171634759217p-67", ops{"allreduce": {4, 3145728}}, 0},
		{"seqpar", unit, false, "8856711724063696p-67", ops{"allgather": {6, 9216}, "reducescatter": {4, 6144}}, 4000},
		{"seqpar", unit, true, "8856711724063693p-67", ops{"allgather": {6, 9216}, "reducescatter": {4, 6144}}, 0},
		{"seqpar", train, false, "4723448994571109p-66", ops{"allgather": {6, 2359296}, "reducescatter": {4, 1572864}}, 918528},
		{"seqpar", train, true, "4723448994571103p-66", ops{"allgather": {6, 2359296}, "reducescatter": {4, 1572864}}, 0},
	}
	for _, tc := range cases {
		name := tc.family + "/h" + strconv.Itoa(tc.sh.h)
		if tc.phantom {
			name += "/phantom"
		}
		t.Run(name, func(t *testing.T) {
			const ranks = 4
			var mu sync.Mutex
			var peak int64
			c := dist.New(dist.Config{WorldSize: ranks})
			err := c.Run(func(w *dist.Worker) error {
				f, err := parallel.New(w, parallel.Layout{Family: tc.family, Ranks: ranks})
				if err != nil {
					return err
				}
				rows, h := tc.sh.rows/f.RowShards(), tc.sh.h
				var b parallel.Layer
				var x *tensor.Matrix
				if tc.phantom {
					b = f.NewBlockPhantom(h, tc.sh.heads, tc.sh.seq)
					x = tensor.NewPhantom(rows, h)
				} else {
					b = f.NewBlock(h, tc.sh.heads, tc.sh.seq, tensor.NewRNG(23))
					x = tensor.RandomMatrix(rows, h, tensor.NewRNG(29))
				}
				b.Backward(b.Forward(x))
				hw := w.Workspace().Stats().HighWaterBytes
				mu.Lock()
				if hw > peak {
					peak = hw
				}
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got := ops{}
			for op, s := range c.Stats().PerOp {
				if s.Calls != 0 {
					got[op] = [2]int64{s.Calls, s.Bytes}
				}
			}
			clock := strconv.FormatFloat(c.MaxClock(), 'b', -1, 64)
			if clock != tc.clock {
				t.Errorf("clock %s, want %s", clock, tc.clock)
			}
			if len(got) != len(tc.ops) {
				t.Errorf("ops %v, want %v", got, tc.ops)
			}
			for op, want := range tc.ops {
				if got[op] != want {
					t.Errorf("%s: calls, bytes %v, want %v", op, got[op], want)
				}
			}
			if peak != tc.peak {
				t.Errorf("peak workspace bytes %d, want %d", peak, tc.peak)
			}
		})
	}
}
