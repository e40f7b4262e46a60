package experiment

import (
	"testing"
)

func TestParallelTrialsMatchSerial(t *testing.T) {
	s := Quick()
	serial, err := RunTrialsParallel(s, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTrialsParallel(s, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths %d/%d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if len(a.GoodPayoffs) != len(b.GoodPayoffs) {
			t.Fatalf("trial %d sample counts differ", i)
		}
		for j := range a.GoodPayoffs {
			if a.GoodPayoffs[j] != b.GoodPayoffs[j] {
				t.Fatalf("trial %d payoff %d differs: serial %g, parallel %g",
					i, j, a.GoodPayoffs[j], b.GoodPayoffs[j])
			}
		}
		if a.AvgSetSize() != b.AvgSetSize() {
			t.Fatalf("trial %d set sizes differ", i)
		}
	}
}

func TestParallelTrialsValidation(t *testing.T) {
	if _, err := RunTrialsParallel(Quick(), 0, 2); err == nil {
		t.Fatal("0 trials accepted")
	}
	// workers <= 0 defaults to GOMAXPROCS; workers > trials clamps.
	rs, err := RunTrialsParallel(Quick(), 2, 0)
	if err != nil || len(rs) != 2 {
		t.Fatalf("rs=%d err=%v", len(rs), err)
	}
	rs, err = RunTrialsParallel(Quick(), 1, 16)
	if err != nil || len(rs) != 1 {
		t.Fatalf("rs=%d err=%v", len(rs), err)
	}
}

func TestScaleStudyPreservesSeparation(t *testing.T) {
	s := Quick()
	s.Churn = false
	pts, err := RunScale(s, []int{30, 60}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	for _, p := range pts {
		// The paper's headline separation must hold at every N.
		if p.SeparationRatio < 1.5 {
			t.Fatalf("N=%d: separation %g too small (rand %g, util %g)",
				p.N, p.SeparationRatio, p.RandomSetSize, p.UtilitySetSize)
		}
		if p.UtilityPayoff <= 0 {
			t.Fatalf("N=%d payoff %g", p.N, p.UtilityPayoff)
		}
		if p.WallClock <= 0 {
			t.Fatalf("N=%d wall clock %v", p.N, p.WallClock)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := RunScale(Quick(), []int{2}, 1, 1); err == nil {
		t.Fatal("N=2 accepted")
	}
}
