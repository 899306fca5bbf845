package iosnap

import (
	"fmt"
	"hash/fnv"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The *Deterministic* tests compare a run with a second run of the same
// binary, so a refactor that shifts both runs the same way passes them. This
// table pins the same seeded configurations (plus the clean-run seeds and a
// bounded-map crash run) to committed constants: the report summary, every
// fired fault, the final device's state digest, and a named list of counters.
// A change that moves any of them changed device-visible behaviour — update a
// constant only with the reason in the commit that moves it.

// pinnedSummary renders what the table pins. Counters are named one by one
// (never %+v of Stats, whose layout is free to change).
func pinnedSummary(rep *TortureReport) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", rep.Fired)
	st := rep.FinalStats
	return fmt.Sprintf("%s fired=%d/%016x digest=%016x gcRuns=%d gcCopied=%d ckpts=%d retries=%d mediaFailures=%d retired=%d fallbacks=%d mapFlushed=%d",
		rep, len(rep.Fired), h.Sum64(), rep.FinalDigest,
		st.GCRuns, st.GCCopied, st.Checkpoints, st.Retries, st.MediaFailures,
		st.SegmentsRetired, st.RecoveryFallbacks, st.MapPagesFlushed)
}

func TestTorturePinnedOracles(t *testing.T) {
	wearReplan := func(cycle int) *faultinject.Plan {
		if cycle >= 2 {
			return nil
		}
		return wearTransientPlan(cycle)
	}
	ckptEvery := func(cfg Config, d sim.Duration) Config {
		cfg.CheckpointInterval = d
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		opt  TortureOptions
		want string
	}{
		{"clean/seed1", tortureConfig(), TortureOptions{Seed: 1, Steps: 900},
			"steps=900 opErrors=0 crashes=0 recoveries=0 checks=10 repls=0 gcErrors=0 torn=0 fired=0/09612b07b5ecb5a5 digest=2380bb8efe918358 gcRuns=98 gcCopied=1329 ckpts=0 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"clean/seed7", tortureConfig(), TortureOptions{Seed: 7, Steps: 900},
			"steps=900 opErrors=0 crashes=0 recoveries=0 checks=10 repls=0 gcErrors=0 torn=0 fired=0/09612b07b5ecb5a5 digest=94b0f1e71f3b6785 gcRuns=89 gcCopied=1187 ckpts=0 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"clean/seed1234", tortureConfig(), TortureOptions{Seed: 1234, Steps: 900},
			"steps=900 opErrors=0 crashes=0 recoveries=0 checks=10 repls=0 gcErrors=0 torn=0 fired=0/09612b07b5ecb5a5 digest=466f4e006f603ffe gcRuns=79 gcCopied=1016 ckpts=0 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"faulted/seed23", tortureConfig(), TortureOptions{Seed: 23, Steps: 500,
			Plan: faultinject.NewPlan(7,
				faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpCopy, Seg: faultinject.AnySeg, Prob: 0.05},
				faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.02})},
			"steps=500 opErrors=37 crashes=0 recoveries=0 checks=6 repls=0 gcErrors=25 torn=0 fired=38/4151d345e0821806 digest=347a656535d39b40 gcRuns=23 gcCopied=285 ckpts=0 retries=0 mediaFailures=23 retired=18 fallbacks=0 mapFlushed=0"},
		{"export-churn/seed42", tortureConfig(), TortureOptions{Seed: 42, Steps: 500, Mix: MixExportChurn,
			Plan: replChurnPlan(11)},
			"steps=500 opErrors=0 crashes=0 recoveries=0 checks=6 repls=37 gcErrors=0 torn=0 fired=6/d3624212bdee43cf digest=8564c8c539f60407 gcRuns=59 gcCopied=903 ckpts=0 retries=6 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"wear-out/seed17", wearTortureConfig(), TortureOptions{Seed: 17, Steps: 700,
			Plan: wearTransientPlan(0), Replan: wearReplan},
			"steps=700 opErrors=0 crashes=2 recoveries=2 checks=10 repls=0 gcErrors=0 torn=0 fired=7/84667926fe775a10 digest=8d344ae8f8e95772 gcRuns=70 gcCopied=953 ckpts=0 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"snapshot-churn/seed13", tortureConfig(), TortureOptions{Seed: 13, Steps: 900, Mix: MixSnapshotChurn},
			"steps=900 opErrors=0 crashes=0 recoveries=0 checks=10 repls=0 gcErrors=0 torn=0 fired=0/09612b07b5ecb5a5 digest=27b2823d1209cb34 gcRuns=156 gcCopied=2396 ckpts=0 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"map-thrash/seed23", mapThrashConfig(), TortureOptions{Seed: 23, Steps: 600, Space: mapThrashSpace,
			Mix: MixMapThrash, Plan: replChurnPlan(11)},
			"steps=600 opErrors=0 crashes=0 recoveries=0 checks=7 repls=0 gcErrors=0 torn=0 fired=11/5286ca7771d96587 digest=b9919fbade09cce9 gcRuns=57 gcCopied=662 ckpts=0 retries=11 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=325"},
		{"map-thrash-crash/seed9", mapThrashConfig(), TortureOptions{Seed: 9, Steps: 900, Space: mapThrashSpace,
			Mix: MixMapThrash, Plan: mapCrashPlan(400),
			Replan: func(cycle int) *faultinject.Plan {
				if cycle == 1 {
					return replChurnPlan(303)
				}
				return nil
			}},
			"steps=900 opErrors=0 crashes=1 recoveries=1 checks=11 repls=0 gcErrors=0 torn=0 fired=16/31db231a200dfb99 digest=b04f7f869a98a9f5 gcRuns=93 gcCopied=1095 ckpts=0 retries=15 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=392"},
		// Periodic checkpoints: generations committed, superseded and stamped
		// stale by cleaning; crashes right after a chunk lands (tail-bounded
		// recovery or fallback); a bounded map's GTD checkpoints.
		{"ckpt-churn/seed77", ckptEvery(tortureConfig(), 1*sim.Millisecond),
			TortureOptions{Seed: 77, Steps: 1200, Mix: MixSnapshotChurn},
			"steps=1200 opErrors=25 crashes=0 recoveries=0 checks=13 repls=0 gcErrors=0 torn=0 fired=0/09612b07b5ecb5a5 digest=17e79770b51a6e2f gcRuns=231 gcCopied=3283 ckpts=25 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"ckpt-crash/seed4242", ckptEvery(tortureConfig(), 500*sim.Microsecond),
			TortureOptions{Seed: 4242, Steps: 1500, ActivationLimit: actLimit,
				Plan: faultinject.CrashAtChunk(1), Replan: ckptCrashReplan},
			"steps=1500 opErrors=0 crashes=4 recoveries=4 checks=20 repls=0 gcErrors=0 torn=0 fired=4/24c56f674e7de61e digest=f222ecc0644c1aff gcRuns=216 gcCopied=2783 ckpts=30 retries=0 mediaFailures=0 retired=0 fallbacks=0 mapFlushed=0"},
		{"map-thrash-ckpt-crash/seed9", ckptEvery(mapThrashConfig(), 1*sim.Millisecond),
			TortureOptions{Seed: 9, Steps: 900, Space: mapThrashSpace, Mix: MixMapThrash,
				Plan: mapCrashPlan(400)},
			"steps=900 opErrors=0 crashes=1 recoveries=1 checks=11 repls=0 gcErrors=0 torn=0 fired=1/5404519dd7836c5b digest=db8f79693099d9b7 gcRuns=88 gcCopied=1009 ckpts=17 retries=0 mediaFailures=0 retired=0 fallbacks=1 mapFlushed=386"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Torture(tc.cfg, tc.opt)
			if err != nil {
				t.Fatalf("%v (%s)", err, rep)
			}
			if got := pinnedSummary(rep); got != tc.want {
				t.Errorf("pinned oracle moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}
