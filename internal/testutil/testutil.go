// Package testutil provides shared helpers for the repository's tests:
// running simulated clusters, comparing matrices, and collecting per-rank
// results deterministically.
package testutil

import (
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// Run executes fn on a fresh cluster of the given size and fails the test on
// any worker error. It returns the cluster for clock/stats inspection.
func Run(t *testing.T, worldSize int, fn func(w *dist.Worker) error) *dist.Cluster {
	t.Helper()
	c := dist.New(dist.Config{WorldSize: worldSize})
	if err := c.Run(fn); err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	return c
}

// Collector gathers one result per rank, safely across worker goroutines.
type Collector struct {
	mu   sync.Mutex
	vals map[int]*tensor.Matrix
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{vals: make(map[int]*tensor.Matrix)} }

// Put stores rank's result.
func (c *Collector) Put(rank int, m *tensor.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[rank] = m
}

// Get returns rank's result (nil if absent).
func (c *Collector) Get(rank int) *tensor.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[rank]
}

// CheckClose fails the test unless got and want agree elementwise within tol.
func CheckClose(t *testing.T, name string, got, want *tensor.Matrix, tol float64) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got=%v want=%v)", name, got != nil, want != nil)
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !got.AllClose(want, tol) {
		t.Fatalf("%s: max abs diff %g exceeds tol %g", name, got.MaxAbsDiff(want), tol)
	}
}

// Scalars gathers one float per rank.
type Scalars struct {
	mu   sync.Mutex
	vals map[int]float64
}

// NewScalars creates an empty scalar collector.
func NewScalars() *Scalars { return &Scalars{vals: make(map[int]float64)} }

// Put stores rank's value.
func (s *Scalars) Put(rank int, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[rank] = v
}

// Get returns rank's value.
func (s *Scalars) Get(rank int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[rank]
}
