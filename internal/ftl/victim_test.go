package ftl

import (
	"testing"

	"iosnap/internal/logcore"
	"iosnap/internal/sim"
)

func TestVictimScoreGreedy(t *testing.T) {
	// Greedy: score is the invalid count, age-independent.
	if logcore.VictimScore(VictimGreedy, 10, 6, 100, 50) != 10 {
		t.Fatal("greedy score wrong")
	}
	if logcore.VictimScore(VictimGreedy, 10, 6, 100, 99) != 10 {
		t.Fatal("greedy must ignore age")
	}
}

func TestVictimScoreCostBenefit(t *testing.T) {
	// Equal utilization: the older segment must score higher.
	oldSeg := logcore.VictimScore(VictimCostBenefit, 8, 8, 1000, 100)
	newSeg := logcore.VictimScore(VictimCostBenefit, 8, 8, 1000, 900)
	if oldSeg <= newSeg {
		t.Fatalf("cost-benefit should prefer older: old=%v new=%v", oldSeg, newSeg)
	}
	// Equal age: the emptier segment must score higher.
	empty := logcore.VictimScore(VictimCostBenefit, 12, 4, 1000, 500)
	full := logcore.VictimScore(VictimCostBenefit, 4, 12, 1000, 500)
	if empty <= full {
		t.Fatalf("cost-benefit should prefer emptier: %v vs %v", empty, full)
	}
	// Fully valid segments score zero.
	if logcore.VictimScore(VictimCostBenefit, 0, 16, 1000, 1) != 0 {
		t.Fatal("fully valid segment should score 0")
	}
}

func TestVictimPolicyString(t *testing.T) {
	if VictimGreedy.String() != "greedy" || VictimCostBenefit.String() != "cost-benefit" {
		t.Fatal("policy names wrong")
	}
}

func TestCostBenefitCleanerPreservesData(t *testing.T) {
	cfg := testConfig()
	cfg.VictimPolicy = VictimCostBenefit
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, now := fillAndChurn(t, f, 1500, 90, 17)
	if f.Stats().GCRuns == 0 {
		t.Fatal("no cleaning under cost-benefit")
	}
	buf := make([]byte, f.SectorSize())
	for lba, version := range model {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("Read(%d): %v", lba, err)
		}
		if buf[0] != sectorPattern(f.SectorSize(), lba, version)[0] {
			t.Fatalf("LBA %d corrupted under cost-benefit cleaning", lba)
		}
	}
}

func TestCostBenefitSegregatesColdData(t *testing.T) {
	// A hot/cold split workload: cost-benefit should not copy cold data
	// more often than greedy does (the LFS argument). We assert it at
	// least keeps write amplification in the same ballpark and cleans.
	run := func(p VictimPolicy) float64 {
		cfg := testConfig()
		cfg.VictimPolicy = p
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := f.SectorSize()
		now := sim.Time(0)
		// Cold fill: LBAs 100..180 written once.
		for lba := int64(100); lba < 180; lba++ {
			f.Scheduler().RunUntil(now)
			now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
		}
		// Hot churn: LBAs 0..20 overwritten constantly.
		rng := sim.NewRNG(uint64(p) + 5)
		for i := 0; i < 1500; i++ {
			f.Scheduler().RunUntil(now)
			lba := rng.Int63n(20)
			d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		f.Scheduler().Drain(now)
		return f.Stats().WriteAmplify
	}
	greedy := run(VictimGreedy)
	cb := run(VictimCostBenefit)
	if cb > greedy*1.5 {
		t.Fatalf("cost-benefit WA %.2f much worse than greedy %.2f", cb, greedy)
	}
}
