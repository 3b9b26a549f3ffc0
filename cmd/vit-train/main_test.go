package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/vit"
)

// TestMain runs the command itself when re-executed by a test with
// VIT_TRAIN_MAIN set, so tests can check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("VIT_TRAIN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTrainSplitSmallerThanBatch: a train split of 4 samples cannot fill a
// batch of 8. Serving used to die with an integer divide by zero inside the
// cluster, and the epoch trainer printed NaN rows and reported done; both
// must exit 1 with one actionable line naming the sample count and batch.
func TestTrainSplitSmallerThanBatch(t *testing.T) {
	small := []string{"-classes", "2", "-train-per-class", "2", "-batch", "8"}
	for _, mode := range [][]string{
		{"-serve"},
		{"-family", "megatron", "-ranks", "2", "-epochs", "1"},
	} {
		cmd := exec.Command(os.Args[0], append(mode, small...)...)
		cmd.Env = append(os.Environ(), "VIT_TRAIN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: want exit status 1, got %v\n%s", mode, exit, stderr.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "4 samples") || !strings.Contains(msg, "batch of 8") || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr does not name the sample count and batch:\n%s", mode, msg)
		}
		if strings.Contains(stdout.String(), "NaN") {
			t.Errorf("%v: printed NaN rows:\n%s", mode, stdout.String())
		}
	}
}

// TestLayoutFromFlags: the flag→layout mapping per family, and rejection of
// explicitly set flags that do not apply — a silently dropped -d would train
// a different layout than asked for.
func TestLayoutFromFlags(t *testing.T) {
	l, err := layoutFromFlags("megatron", 2, 1, 8, map[string]bool{"ranks": true})
	if err != nil || l.Ranks != 8 || l.Q != 0 {
		t.Fatalf("megatron: got %+v, %v", l, err)
	}
	l, err = layoutFromFlags("tesseract", 2, 2, 4, map[string]bool{"q": true, "d": true})
	if err != nil || l.Q != 2 || l.D != 2 {
		t.Fatalf("tesseract: got %+v, %v", l, err)
	}
	if _, err := layoutFromFlags("megatron", 2, 1, 8, map[string]bool{"q": true}); err == nil || !strings.Contains(err.Error(), "-q/-d") {
		t.Fatalf("megatron with -q must error actionably, got %v", err)
	}
	if _, err := layoutFromFlags("optimus", 2, 1, 8, map[string]bool{"ranks": true}); err == nil || !strings.Contains(err.Error(), "-ranks") {
		t.Fatalf("optimus with -ranks must error actionably, got %v", err)
	}
}

// TestLayoutValidationIsOneLine: the unknown-family and indivisible-layout
// paths the CLI prints resolve to single actionable errors, never panics.
func TestLayoutValidationIsOneLine(t *testing.T) {
	l, err := layoutFromFlags("bogus", 2, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.Validate(l); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("want unknown-family error, got %v", err)
	}
	mcfg := vit.ModelConfig{PatchDim: 48, SeqLen: 16, Hidden: 64, Heads: 4, Layers: 2, Classes: 10, Seed: 1}
	err = vit.TrainableErr(parallel.Layout{Family: "megatron", Ranks: 3}, 8, mcfg)
	if err == nil || !strings.Contains(err.Error(), "not divisible") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("want a one-line divisibility error, got %q", err)
	}
	err = vit.TrainableErr(parallel.Layout{Family: "tesseract", Q: 3, D: 1}, 9, mcfg)
	if err == nil || !strings.Contains(err.Error(), "q=3") {
		t.Fatalf("want a mesh-side divisibility error, got %v", err)
	}
}
