// Package bench measures the unit every paper experiment is built from:
// one full simulation at paper scale (N=40, 100 pairs, 2000
// transmissions, churn on; experiment.Default). Run with:
//
//	go test -bench=. -benchmem
//
// The tables and figures themselves are regenerated by cmd/experiments,
// whose golden test runs every section of the quick suite; the end-to-end
// benchmark of the live system is benchmark/ (see benchmark/README.md).
package bench

import (
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/experiment"
)

func base(seed uint64) experiment.Setup {
	s := experiment.Default()
	s.Seed = seed
	return s
}

// BenchmarkSingleRunUM1 measures the cost of one full paper-scale
// simulation under Utility Model I (the unit all sweeps are built from).
func BenchmarkSingleRunUM1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := base(uint64(i) + 1)
		s.MaliciousFraction = 0.1
		if _, err := experiment.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunUM2 measures one full simulation under Utility Model
// II (includes the per-connection SPNE solve).
func BenchmarkSingleRunUM2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := base(uint64(i) + 1)
		s.MaliciousFraction = 0.1
		s.Strategy = core.UtilityII
		if _, err := experiment.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}
