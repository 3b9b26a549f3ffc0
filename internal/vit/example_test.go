package vit_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/parallel"
	"repro/internal/vit"
)

// ExampleTrainLayout is the Figure 7 experiment in miniature: train a tiny
// Vision Transformer on the synthetic image dataset serially, then under
// Tesseract [2,2,1] and [2,2,2]. The three accuracy and loss curves
// coincide, because Tesseract changes the execution, not the mathematics.
func ExampleTrainLayout() {
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
	for _, d := range []int{1, 2} {
		h, err := vit.TrainLayout(parallel.Layout{Family: "tesseract", Q: 2, D: d}, ds, mcfg, tc)
		if err != nil {
			log.Fatal(err)
		}
		histories = append(histories, h)
	}

	fmt.Printf("%-8s | %-10s %-10s %-10s\n", "epoch", histories[0].Setting, histories[1].Setting, histories[2].Setting)
	fmt.Println("test accuracy per epoch:")
	for e := 0; e < tc.Epochs; e++ {
		fmt.Printf("%-8d | %-10.4f %-10.4f %.4f\n", e+1,
			histories[0].TestAcc[e], histories[1].TestAcc[e], histories[2].TestAcc[e])
	}
	fmt.Println("\ntraining loss per epoch:")
	for e := 0; e < tc.Epochs; e++ {
		fmt.Printf("%-8d | %-10.6f %-10.6f %.6f\n", e+1,
			histories[0].Loss[e], histories[1].Loss[e], histories[2].Loss[e])
	}
	for e := 0; e < tc.Epochs; e++ {
		for _, h := range histories[1:] {
			if math.Abs(h.Loss[e]-histories[0].Loss[e]) > 1e-6 {
				log.Fatalf("epoch %d: %s loss diverged from serial", e+1, h.Setting)
			}
		}
	}
	fmt.Println("\nall three curves coincide: Tesseract does not affect accuracy")
	// Output:
	// synthetic ImageNet-10 stand-in: 120 train / 40 test images, 16 patches of dim 48
	//
	// epoch    | serial     tesseract [2,2] tesseract [2,2,2]
	// test accuracy per epoch:
	// 1        | 0.2000     0.2000     0.2000
	// 2        | 0.5000     0.5000     0.5000
	// 3        | 0.6750     0.6750     0.6750
	// 4        | 0.7250     0.7250     0.7250
	//
	// training loss per epoch:
	// 1        | 2.487195   2.487195   2.487195
	// 2        | 1.549969   1.549969   1.549969
	// 3        | 0.821860   0.821860   0.821860
	// 4        | 0.368808   0.368808   0.368808
	//
	// all three curves coincide: Tesseract does not affect accuracy
}
