package vit

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// bits renders float64s exactly, as strconv's 'b' format: a refactor of the
// drivers must reproduce every value to the bit.
func bits(xs ...float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'b', -1, 64)
	}
	return strings.Join(out, " ")
}

// TestGoldenDrivers pins the outputs of every ViT training driver on the
// tiny fixture: the epoch trainer's History for all four families, the
// elastic loop's re-shard accounting, the adaptive watchdog's decisions and
// clocks on the straggler fixture, and the fault-riding trainer's clock and
// traffic. Any change to how the drivers build their replicas or step them
// must leave every value bit-identical.
func TestGoldenDrivers(t *testing.T) {
	ds, mcfg := tinyData()
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	hist := map[string][3]string{
		"tesseract": {"7434844726403741p-52 5267645686771520p-53", "5066549580791808p-54 8444249301319680p-53", "6755399441055744p-53 4503599627370496p-52"},
		"optimus":   {"7434844726403740p-52 5267645686771520p-53", "5066549580791808p-54 8444249301319680p-53", "6755399441055744p-53 4503599627370496p-52"},
		"megatron":  {"7434844726403741p-52 5267645686771520p-53", "5066549580791808p-54 8444249301319680p-53", "6755399441055744p-53 4503599627370496p-52"},
		"seqpar":    {"7434844726403741p-52 5267645686771521p-53", "5066549580791808p-54 8444249301319680p-53", "6755399441055744p-53 4503599627370496p-52"},
	}
	tc := TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	for _, l := range familyLayouts() {
		h, err := TrainLayout(l, ds, mcfg, tc)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		want := hist[l.Family]
		check(l.Family+" loss", bits(h.Loss...), want[0])
		check(l.Family+" train acc", bits(h.TrainAcc...), want[1])
		check(l.Family+" test acc", bits(h.TestAcc...), want[2])
	}

	etc := elasticTC()
	el, err := TrainElastic(parallel.Layout{Family: "tesseract", Q: 2, D: 2}, ElasticConfig{
		FailStep: 2, TotalSteps: 4, FailRank: -1,
		Algos: elasticAlgos(), Topology: elasticTopology(mcfg, etc),
	}, ds, mcfg, etc)
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	check("elastic to", el.To.String(), "megatron [2]")
	check("elastic losses", bits(el.Losses...), "6356533318530766p-51 4990434237087736p-51 6768740131575573p-52 5424586332406983p-52")
	check("elastic seconds", bits(el.CollectSeconds, el.RestoreSeconds, el.StepSeconds), "7973367531797287p-62 8906033731572414p-66 4742229664444003p-67")

	const total, probe = 24, 6
	from := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	fp := stragglerPlan(7, probe, 4)
	ad, err := TrainAdaptive(from, AdaptiveConfig{
		TotalSteps: total, Probe: probe,
		Monitor: dist.MonitorConfig{Window: probe, K: 2, W: 3},
		Faults:  fp, Algos: elasticAlgos(), Topology: adaptiveTopology(mcfg, etc),
		ReshardSteps: 10,
	}, ds, mcfg, etc)
	if err != nil {
		t.Fatalf("TrainAdaptive: %v", err)
	}
	check("adaptive to", ad.To.String(), "tesseract [2,2]")
	check("adaptive steps", fmt.Sprint(ad.DetectedStep, ad.RelayoutStep), "12 12")
	check("adaptive seconds", bits(ad.CollectSeconds, ad.RestoreSeconds, ad.TotalSeconds), "4904933171097600p-65 7909094943373800p-69 7691359353102012p-56")

	fr, err := TrainFaulty(from, fp, computeBoundCost(), ds, mcfg, etc, total)
	if err != nil {
		t.Fatalf("TrainFaulty: %v", err)
	}
	check("faulty seconds", bits(fr.Seconds), "5563243501138260p-55")
	check("faulty stats", fmt.Sprintf("%+v", fr.Stats), "{Messages:16992 Bytes:16349184 PerOp:map[allgather:{Calls:144 Messages:768 Bytes:172032} allreduce:{Calls:2064 Messages:4128 Bytes:2967552} broadcast:{Calls:7776 Messages:7776 Bytes:8767488} reduce:{Calls:4320 Messages:4320 Bytes:4442112}]}")
}
