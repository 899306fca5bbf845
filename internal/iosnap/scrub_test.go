package iosnap

import (
	"testing"

	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// scrubReadRun fills a device, optionally arms a paced scrub pass, then
// issues fixed-rate random foreground reads and reports their p99 latency
// (plus the stats, so the caller can confirm the scrubber actually ran
// during the measurement window).
func scrubReadRun(t *testing.T, scrub bool) (sim.Duration, Stats) {
	t.Helper()
	cfg := testConfig()
	cfg.Nand.Segments = 64 // headroom so GC stays out of the measurement
	if scrub {
		cfg.ScrubLimit = ratelimit.WorkSleep{Work: 100 * sim.Microsecond, Sleep: 2 * sim.Millisecond}
	}
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := cfg.Nand.SectorSize
	now := sim.Time(0)
	for lba := int64(0); lba < cfg.UserSectors; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatalf("preload LBA %d: %v", lba, err)
		}
	}
	now = f.Sched.Drain(now)

	if scrub && !f.StartScrub(now) {
		t.Fatal("StartScrub refused")
	}
	rng := sim.NewRNG(7)
	rec := sim.NewLatencyRecorder(0)
	buf := make([]byte, ss)
	for i := 0; i < 1200; i++ {
		f.Sched.RunUntil(now) // let pending scrub quanta contend for the device
		done, err := f.Read(now, rng.Int63n(cfg.UserSectors), buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		rec.Record(now, done.Sub(now))
		now = now.Add(100 * sim.Microsecond)
		if done > now {
			now = done
		}
	}
	st := f.Stats()
	return rec.Percentile(99), st
}

// TestScrubReadLatencyBounded is the pacing acceptance check: with the
// scrubber armed under its work/sleep budget, foreground random-read p99
// stays within 2x of the scrub-off baseline (the fig9-style fixed-rate read
// workload, short-mode sized).
func TestScrubReadLatencyBounded(t *testing.T) {
	base, _ := scrubReadRun(t, false)
	during, st := scrubReadRun(t, true)
	if st.ScrubSegments == 0 {
		t.Fatalf("scrubber never scanned a segment during the run: %+v", st)
	}
	if base <= 0 {
		t.Fatalf("degenerate baseline p99 %v", base)
	}
	if during > 2*base {
		t.Fatalf("scrub-on read p99 %v exceeds 2x scrub-off p99 %v", during, base)
	}
	t.Logf("read p99: scrub-off=%v scrub-on=%v (%.2fx), scrubbed %d segments",
		base, during, float64(during)/float64(base), st.ScrubSegments)
}
