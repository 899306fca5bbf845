// Package shard implements the sharded concurrent front-end over the
// snapshot-capable FTL (the LFTL direction: partition the LBA space across
// the device's parallelism so independent requests proceed in parallel
// instead of serializing behind one translation layer).
//
// The logical device is statically partitioned into N shards, shard i owning
// the i-th contiguous 1/N of the LBA space (LFTL's split). Each shard owns a
// disjoint slice of everything that would otherwise serialize requests: its
// own forward map, CoW validity store, snapshot tree, GC accounting, log
// head, and NAND (an equal share of the segments and channels). A request
// is split at shard boundaries and the pieces proceed independently; two
// requests to different shards never contend on host-side state.
//
// Service is the front-end: an op runs on its caller's goroutine under a
// mutex per shard, many callers run concurrently, and the per-shard virtual
// clocks advance independently. Shard overlap in virtual time falls out of
// the shards' independent NAND resources (the per-channel busy-time
// accounting internal/nand already performs). Driven from one goroutine it
// is deterministic, and with Shards=1 it is bit-exact against the unsharded
// FTL in device state and Stats (the equivalence test demands it). It is
// clean under -race.
//
// Cross-shard machinery:
//
//   - Snapshot create is a barrier: all shards freeze at one consistent
//     instant (the maximum quiescence horizon across shard devices —
//     nand.Device.BusyUntil), a create note lands in every shard's log at
//     that instant, and the per-shard snapshot IDs are verified identical.
//     The barrier holds every shard's lock, so no op is half-executed when
//     it freezes.
//
//   - The rescue reserve is distributed across shards:
//     Config.Base.RescueReserve segments in total, round-robin.
//     ConfigForDevices — the mount path of iosnapd and the benchmark — sets
//     it to the per-device reserve times the shard count, so each shard
//     keeps the per-device reserve (2 by default) and the held-back space
//     grows with the shard count.
package shard

import (
	"fmt"

	"iosnap/internal/iosnap"
)

// Config parameterizes the sharded front-end.
type Config struct {
	// Base is the configuration of the WHOLE logical device; NewService and
	// NewServiceFrom split it evenly across shards (segments, channels,
	// user sectors, reserves).
	// With Shards=1 the single shard receives Base verbatim.
	Base iosnap.Config

	// Shards is the number of LBA-space partitions (>= 1).
	Shards int
}

// Validate checks shard-level consistency (per-shard configs are validated
// again by iosnap.New when the service is built).
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards %d must be at least 1", c.Shards)
	}
	if c.Base.Nand.Segments%c.Shards != 0 {
		return fmt.Errorf("shard: Segments %d not divisible by %d shards", c.Base.Nand.Segments, c.Shards)
	}
	if c.Base.UserSectors%int64(c.Shards) != 0 {
		return fmt.Errorf("shard: UserSectors %d not divisible by %d shards", c.Base.UserSectors, c.Shards)
	}
	return nil
}

// shardConfig derives shard i's iosnap configuration: an equal slice of
// the segments, channels, and advertised capacity, with the reserve
// budgets distributed so the device-wide totals match Base.
func (c Config) shardConfig(i int) iosnap.Config {
	sc := c.Base
	if c.Shards == 1 {
		return sc
	}
	sc.Nand.Segments = c.Base.Nand.Segments / c.Shards
	if ch := c.Base.Nand.Channels / c.Shards; ch >= 1 {
		sc.Nand.Channels = ch
	} else {
		sc.Nand.Channels = 1
	}
	sc.UserSectors = c.Base.UserSectors / int64(c.Shards)
	sc.ReserveSegments = distribute(c.Base.ReserveSegments, c.Shards, i)
	if sc.ReserveSegments < 1 {
		sc.ReserveSegments = 1
	}
	sc.RescueReserve = distribute(c.Base.RescueReserve, c.Shards, i)
	return sc
}

// distribute splits a global budget of n tokens across shards round-robin:
// shard i receives floor(n/shards) plus one of the n%shards remainder.
func distribute(n, shards, i int) int {
	per := n / shards
	if i < n%shards {
		per++
	}
	return per
}

// extent is one shard-local piece of a global request.
type extent struct {
	shard int   // owning shard
	lba   int64 // shard-local LBA
	n     int64 // sectors in this piece
	off   int64 // sector offset within the global request
}

// checkIO rejects a run outside the advertised capacity. n is compared
// against the room left after lba: lba+n would wrap for a hostile n and
// pass, and extents would then split a run of 2^63 sectors.
func (c *Config) checkIO(lba, n int64) error {
	if n <= 0 || lba < 0 || n > c.Base.UserSectors-lba {
		return fmt.Errorf("shard: I/O out of range: lba %d n %d (capacity %d)", lba, n, c.Base.UserSectors)
	}
	return nil
}

// extents splits the global run [lba, lba+n) into shard-local pieces. Shard
// i owns the i-th contiguous UserSectors/Shards sectors, so the pieces sit
// on consecutive, ascending shards and tile the request in order.
func (c *Config) extents(lba, n int64, out []extent) []extent {
	out = out[:0]
	per := c.Base.UserSectors / int64(c.Shards)
	off := int64(0)
	for n > 0 {
		sh := lba / per
		local := lba % per
		take := min(per-local, n)
		out = append(out, extent{shard: int(sh), lba: local, n: take, off: off})
		lba += take
		n -= take
		off += take
	}
	return out
}
