// ViT example: the Figure 7 experiment in miniature. Train a tiny Vision
// Transformer on the synthetic image dataset serially, then under Tesseract
// [2,2,1] and [2,2,2], and print the three accuracy curves — which coincide,
// because Tesseract changes the execution, not the mathematics.
package main

import (
	"fmt"
	"log"

	"repro/internal/parallel"
	"repro/internal/vit"
)

func main() {
	dcfg := vit.DataConfig{
		Classes: 10, ImageSize: 16, Channels: 3, PatchSize: 4,
		Train: 12, Test: 4, Seed: 2022,
	}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(),
		SeqLen:   dcfg.Patches(),
		Hidden:   32,
		Heads:    4,
		Layers:   2,
		Classes:  dcfg.Classes,
		Seed:     3,
	}
	tc := vit.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}

	fmt.Printf("synthetic ImageNet-%d stand-in: %d train / %d test images, %d patches of dim %d\n\n",
		dcfg.Classes, len(ds.Train), len(ds.Test), mcfg.SeqLen, mcfg.PatchDim)

	histories := []vit.History{vit.TrainSerial(ds, mcfg, tc)}
	for _, shape := range []struct{ q, d int }{{2, 1}, {2, 2}} {
		h, err := vit.TrainLayout(parallel.Layout{Family: "tesseract", Q: shape.q, D: shape.d}, ds, mcfg, tc)
		if err != nil {
			log.Fatal(err)
		}
		histories = append(histories, h)
	}

	fmt.Printf("%-8s | %-10s %-10s %-10s\n", "epoch", histories[0].Setting, histories[1].Setting, histories[2].Setting)
	fmt.Println("test accuracy per epoch:")
	for e := 0; e < tc.Epochs; e++ {
		fmt.Printf("%-8d | %-10.4f %-10.4f %-10.4f\n", e+1,
			histories[0].TestAcc[e], histories[1].TestAcc[e], histories[2].TestAcc[e])
	}
	fmt.Println("\ntraining loss per epoch:")
	for e := 0; e < tc.Epochs; e++ {
		fmt.Printf("%-8d | %-10.6f %-10.6f %-10.6f\n", e+1,
			histories[0].Loss[e], histories[1].Loss[e], histories[2].Loss[e])
	}

	for e := 0; e < tc.Epochs; e++ {
		for _, h := range histories[1:] {
			d := h.Loss[e] - histories[0].Loss[e]
			if d > 1e-6 || d < -1e-6 {
				log.Fatalf("epoch %d: %s loss diverged from serial", e+1, h.Setting)
			}
		}
	}
	fmt.Println("\nall three curves coincide — Figure 7 reproduced: Tesseract does not affect accuracy")
}
