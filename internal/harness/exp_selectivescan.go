package harness

import (
	"fmt"

	"iosnap/internal/iosnap"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "selectivescan",
		Title: "Extension: selective activation scan (paper §7 future work)",
		Paper: "§7 — \"activations can be further optimized by selectively scanning only those segments that have data corresponding to the snapshot\"; not evaluated in the paper",
		Run:   runSelectiveScan,
	})
}

func runSelectiveScan(rc RunConfig) (*Report, error) {
	snapData := scaledBytes(rc, 16<<20) // a small, old snapshot
	logSizes := []int64{256 << 20, 512 << 20, 1 << 30}

	tbl := Table{
		Title:  "Activation of a small early snapshot vs total log size",
		Header: []string{"Log size", "Full scan", "Selective scan", "Speedup", "Segments scanned (sel/full)"},
	}
	series := Series{Name: "selective-scan speedup", XLabel: "log size (MB)", YLabel: "speedup (x)"}
	for _, base := range logSizes {
		logSize := scaledBytes(rc, base)
		var times [2]sim.Duration
		var segsScanned [2]int64
		for i, selective := range []bool{false, true} {
			nc := expNand(segmentsFor(expNand(0), logSize))
			cfg := iosnap.DefaultConfig(nc)
			cfg.SelectiveScan = selective
			f, err := newIoSnapCfg(cfg)
			if err != nil {
				return nil, err
			}
			// Small snapshot first, then fill the log with unrelated data.
			spec := workload.Spec{
				Kind: workload.Write, Pattern: workload.Random,
				BlockSize: 4096, Threads: 2, QueueDepth: 16,
				TotalBytes: snapData, RangeHi: snapData / 4096 * 2,
				Seed: 1, SubmitCost: sim.Microsecond,
			}
			_, now, err := workload.Run(f, 0, spec, workload.Options{Scheduler: f.Scheduler()})
			if err != nil {
				return nil, fmt.Errorf("selectivescan prep: %w", err)
			}
			snap, now, err := f.CreateSnapshot(now)
			if err != nil {
				return nil, err
			}
			fill := spec
			fill.TotalBytes = logSize - snapData
			fill.RangeLo = snapData / 4096 * 2
			fill.RangeHi = f.Sectors()
			fill.Seed = 2
			_, now, err = workload.Run(f, now, fill, workload.Options{Scheduler: f.Scheduler()})
			if err != nil {
				return nil, fmt.Errorf("selectivescan fill: %w", err)
			}
			scansBefore := f.Device().Stats().OOBScans
			view, done, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
			if err != nil {
				return nil, err
			}
			times[i] = done.Sub(now)
			segsScanned[i] = f.Device().Stats().OOBScans - scansBefore
			if _, err := view.Deactivate(done); err != nil {
				return nil, err
			}
			rc.logf("selectivescan: log=%s selective=%v act=%v segs=%d",
				fmtBytes(logSize), selective, times[i], segsScanned[i])
		}
		speedup := float64(times[0]) / float64(times[1])
		tbl.Rows = append(tbl.Rows, []string{
			fmtBytes(logSize), fmtDur(times[0]), fmtDur(times[1]),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%d / %d", segsScanned[1], segsScanned[0]),
		})
		series.X = append(series.X, float64(logSize)/(1<<20))
		series.Y = append(series.Y, speedup)
	}
	return &Report{
		ID:     "selectivescan",
		Title:  "Selective activation scan (extension)",
		Paper:  "beyond the paper: listing only the segments where the snapshot's epoch holds a valid bit makes activation cost proportional to the snapshot's footprint, not the log size",
		Tables: []Table{tbl},
		Series: []Series{series},
		Notes: []string{
			fmt.Sprintf("%s snapshot on growing logs; correctness vs full scan is enforced by iosnap's test suite", fmtBytes(snapData)),
		},
	}, nil
}

// newIoSnapCfg builds an FTL from an explicit config (variant of newIoSnap).
func newIoSnapCfg(cfg iosnap.Config) (*iosnap.FTL, error) {
	return iosnap.New(cfg, nil)
}
