package main

import (
	"flag"
	"fmt"

	"iosnap/internal/sim"
	"iosnap/internal/srv"
)

// runRemote dispatches a verb against a running iosnapd instead of a local
// image file. The verbs reuse the local flags (-lba, -count, -text, -id),
// so scripts move between the two modes by adding -remote.
func runRemote(addr, cmd string, args []string) error {
	c, err := srv.Dial(addr)
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", addr, err)
	}
	defer c.Close()
	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Printf("%s is alive\n", addr)
		return nil
	case "write":
		return remoteWrite(c, args)
	case "read":
		return remoteRead(c, args)
	case "trim":
		return remoteTrim(c, args)
	case "snap-create":
		id, err := c.SnapCreate()
		if err != nil {
			return err
		}
		fmt.Printf("created snapshot %d\n", id)
		return nil
	case "snap-delete":
		fs := flag.NewFlagSet("snap-delete", flag.ContinueOnError)
		id := fs.Uint64("id", 0, "snapshot id")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if err := c.SnapDelete(*id); err != nil {
			return err
		}
		fmt.Printf("deleted snapshot %d (blocks reclaim in background)\n", *id)
		return nil
	case "snap-read":
		return remoteSnapRead(c, args)
	case "stats":
		return remoteStats(c)
	case "shutdown":
		if err := c.Shutdown(); err != nil {
			return err
		}
		fmt.Printf("%s is shutting down (it checkpoints and persists its images)\n", addr)
		return nil
	default:
		return fmt.Errorf("verb %q is not available over -remote (want ping, write, read, trim, snap-create, snap-delete, snap-read, stats, or shutdown)", cmd)
	}
}

// remoteGeometry reads the sector size and count from the server's stats:
// the remote verbs size payloads and check -count with them the way the
// local verbs use f.SectorSize() and f.Sectors().
func remoteGeometry(c *srv.Client) (ss int, sectors int64, err error) {
	st, err := c.Stats()
	if err != nil {
		return 0, 0, err
	}
	return st.SectorSize, st.Sectors, nil
}

func remoteWrite(c *srv.Client, args []string) error {
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	text := fs.String("text", "", "payload text (zero-padded per sector)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, sectors, err := remoteGeometry(c)
	if err != nil {
		return err
	}
	n, err := sectorCount(*count, sectors)
	if err != nil {
		return err
	}
	buf := make([]byte, n*ss)
	copy(buf, *text)
	if err := c.Write(*lba, buf); err != nil {
		return err
	}
	fmt.Printf("wrote %d sector(s) at LBA %d\n", *count, *lba)
	return nil
}

func remoteRead(c *srv.Client, args []string) error {
	fs := flag.NewFlagSet("read", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, sectors, err := remoteGeometry(c)
	if err != nil {
		return err
	}
	n, err := sectorCount(*count, sectors)
	if err != nil {
		return err
	}
	buf, err := c.Read(*lba, n)
	if err != nil {
		return err
	}
	printSectors(buf, ss, *lba)
	return nil
}

func remoteTrim(c *srv.Client, args []string) error {
	fs := flag.NewFlagSet("trim", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.Trim(*lba, *count); err != nil {
		return err
	}
	fmt.Printf("trimmed %d sector(s) at LBA %d\n", *count, *lba)
	return nil
}

func remoteSnapRead(c *srv.Client, args []string) error {
	fs := flag.NewFlagSet("snap-read", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "snapshot id")
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, sectors, err := remoteGeometry(c)
	if err != nil {
		return err
	}
	n, err := sectorCount(*count, sectors)
	if err != nil {
		return err
	}
	buf, err := c.SnapRead(*id, *lba, n)
	if err != nil {
		return err
	}
	printSectors(buf, ss, *lba)
	return nil
}

func remoteStats(c *srv.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("shards:             %d\n", st.Shards)
	fmt.Printf("sectors:            %d x %d B\n", st.Sectors, st.SectorSize)
	fmt.Printf("mapped sectors:     %d\n", st.MappedSectors)
	fmt.Printf("snapshots (live):   %d\n", st.LiveSnapshots)
	var reads, writes, trims, gcRuns int64
	for _, p := range st.PerShard {
		reads += p.UserReads
		writes += p.UserWrites
		trims += p.Trims
		gcRuns += p.GCRuns
	}
	fmt.Printf("user reads:         %d sectors\n", reads)
	fmt.Printf("user writes:        %d sectors\n", writes)
	fmt.Printf("trims:              %d\n", trims)
	fmt.Printf("gc runs:            %d\n", gcRuns)
	// Per-shard virtual clocks: the skew between the fastest and slowest
	// shard is the load imbalance the partitioning left behind.
	if len(st.PerShardVirtual) > 0 {
		min, max := st.PerShardVirtual[0], st.PerShardVirtual[0]
		fmt.Printf("shard clocks:      ")
		for _, v := range st.PerShardVirtual {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			fmt.Printf(" %v", sim.Duration(v))
		}
		fmt.Printf("\nshard skew:         %v (max-min)\n", sim.Duration(max-min))
	}
	// Wall time requests waited for each shard's mutex.
	if len(st.ShardLockWait) > 0 {
		fmt.Printf("shard lock waits:  ")
		for _, w := range st.ShardLockWait {
			fmt.Printf(" %v/%v/%v", w.P50, w.P99, w.Max)
		}
		fmt.Printf(" (p50/p99/max)\n")
	}
	lookups := st.ViewCacheHits + st.ViewCacheMisses
	if lookups > 0 {
		fmt.Printf("view cache:         %d lookups, %.1f%% hit, %d live, %d expired, %d invalidated\n",
			lookups, 100*float64(st.ViewCacheHits)/float64(lookups),
			st.ViewCacheLive, st.ViewCacheExpiries, st.ViewCacheInvalidations)
	}
	return nil
}
