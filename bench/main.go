// Command bench is the repository's benchmark: four seeded workloads driven
// through the whole request path — srv over loopback, shard.Service,
// iosnap.FTL, nand.Device — as the daemon assembles it, with every byte read
// back checked against a model. See README.md beside this file.
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bench compare A.jsonl B.jsonl
//
// With -trace 0 a run prints the end-to-end metrics; with -trace 1 it is the
// separate traced run and prints the per-layer metrics. Without -workload it
// runs all four. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; -out appends the full
// record (host facts and sample counts included) to a JSON-lines file that
// compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// scratchRoot is where a run keeps its image files (for the length of the
// restart phase) and leaves its span log: inside the checkout it was started
// from, next to the build output.
const scratchRoot = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "seed of the op streams")
	seconds := fs.Int("seconds", refSeconds, "run length the op counts are scaled to")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	out := fs.String("out", "", "append the run's full record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("no workload %q", *name)
		}
		todo = []workload{*w}
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}

	failed := false
	for i := range todo {
		rec, err := runWorkload(&todo[i], daemonGeometry, *seed, *seconds, *trace == 1, scratchRoot)
		if err != nil {
			return fmt.Errorf("%s: %w", todo[i].name, err)
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return err
			}
		}
		line, err := rec.resultLine()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		failed = failed || !rec.Correct
	}
	if failed {
		return fmt.Errorf("fail_ratio is above 0")
	}
	return nil
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
