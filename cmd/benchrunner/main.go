// Command benchrunner regenerates the paper's tables and figures on the
// simulated device.
//
// Usage:
//
//	benchrunner [-run id[,id...]] [-scale f] [-csv dir] [-v] [-list]
//
// With no -run flag every experiment runs in order. -scale multiplies data
// volumes (1.0 = the default scaled-down-from-paper sizes; try 0.1 for a
// quick pass). -csv writes each report's tables and series as CSV files;
// the committed results/*.csv are the default scale's, and scripts/verify.sh
// holds every run to them byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iosnap/internal/harness"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale = flag.Float64("scale", 1.0, "data-volume scale factor")
		csv   = flag.String("csv", "", "directory to write CSV results into")
		verb  = flag.Bool("v", false, "log per-run progress")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var ids []string
	if *run == "" {
		ids = harness.IDs()
	} else {
		ids = strings.Split(*run, ",")
	}

	rc := harness.RunConfig{Scale: *scale}
	if *verb {
		rc.Out = os.Stderr
	}
	failures := 0
	for _, id := range ids {
		exp, ok := harness.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (use -list)\n", id)
			failures++
			continue
		}
		start := time.Now()
		report, err := exp.Run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s failed: %v\n", exp.ID, err)
			failures++
			continue
		}
		report.Render(os.Stdout)
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", exp.ID, time.Since(start).Seconds())

		if *csv != "" {
			if err := os.MkdirAll(*csv, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csv, exp.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				os.Exit(1)
			}
			err = report.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: writing %s: %v\n", path, err)
				failures++
			}
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}
