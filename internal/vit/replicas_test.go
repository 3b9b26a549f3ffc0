package vit

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// TestTrainSplitSmallerThanBatch: a train split that cannot fill one batch
// is one actionable error naming the sample count and the batch, from the
// epoch trainer (which used to report NaN losses) and from the step path
// (which used to divide by zero inside the cluster). The replica set stays
// usable for everything but training.
func TestTrainSplitSmallerThanBatch(t *testing.T) {
	dcfg := DataConfig{Classes: 2, ImageSize: 8, Channels: 3, PatchSize: 4, Train: 2, Test: 2, Seed: 11}
	ds := NewDataset(dcfg)
	mcfg := ModelConfig{PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(), Hidden: 16, Heads: 4, Layers: 1, Classes: 2, Seed: 3}
	tc := TrainConfig{Epochs: 1, BatchSize: 8}
	l := parallel.Layout{Family: "megatron", Ranks: 2}
	want := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "4 samples") || !strings.Contains(err.Error(), "batch of 8") {
			t.Fatalf("%s: want an error naming 4 samples and a batch of 8, got %v", what, err)
		}
	}
	h, err := TrainLayout(l, ds, mcfg, tc)
	want("TrainLayout", err)
	if len(h.Loss) != 0 {
		t.Fatalf("TrainLayout returned a curve %v alongside its error", h.Loss)
	}
	_, err = TrainFaulty(l, nil, dist.CostModel{}, ds, mcfg, tc, 1)
	want("TrainFaulty", err)

	reps, err := NewReplicas(dist.New(dist.Config{WorldSize: 2}), l, ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	want("TrainSteps", reps.TrainSteps(1, nil, nil))
	if err := reps.Run(func(w *dist.Worker, rp *Replica) error {
		evalForward(rp.F, rp.Model, ds, []int{0, 1, 2}, mcfg.SeqLen)
		rp.F.EndStep()
		return nil
	}); err != nil {
		t.Fatalf("forward after the rejected step: %v", err)
	}
}
