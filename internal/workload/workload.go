// Package workload drives block devices with the microbenchmark patterns
// the paper evaluates with: sequential/random/zipfian reads and writes, one
// or more logical threads, synchronous or queued (async) submission — all
// over virtual time, interleaving any background tasks (cleaning,
// activation) the device has scheduled.
package workload

import (
	"errors"
	"fmt"

	"iosnap/internal/blockdev"
	"iosnap/internal/sim"
)

// Pattern selects the address distribution.
type Pattern int

// Address patterns.
const (
	Sequential Pattern = iota
	Random
	Zipf
	// HotCold splits the range into a hot head and a cold tail: a HotFrac
	// share of the ops lands uniformly in the first HotSpan share of the
	// range, the rest uniformly in the remainder. The two knobs dial
	// translation-page locality directly — the map-cache benchmarks sweep
	// them to trace hit-rate versus cache size.
	HotCold
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case Zipf:
		return "zipf"
	case HotCold:
		return "hotcold"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Kind selects the operation.
type Kind int

// Operation kinds.
const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Spec describes one workload run.
type Spec struct {
	Kind    Kind
	Pattern Pattern

	// BlockSize is bytes per operation (a multiple of the sector size).
	BlockSize int
	// Threads is the number of logical submitters.
	Threads int
	// QueueDepth is outstanding ops per thread; 1 = synchronous.
	QueueDepth int
	// TotalBytes ends the run once this much data has been issued (0 = use
	// MaxOps/MaxTime).
	TotalBytes int64
	// MaxOps ends the run after this many operations (0 = unlimited).
	MaxOps int64
	// MaxTime ends the run at this virtual time (0 = unlimited).
	MaxTime sim.Time
	// Range restricts LBAs to [Lo, Hi) sectors; zero Hi = whole device.
	RangeLo, RangeHi int64
	// Seed makes the run reproducible.
	Seed uint64
	// ZipfS is the zipf exponent (>1) when Pattern == Zipf.
	ZipfS float64
	// HotFrac and HotSpan parameterize Pattern == HotCold: HotFrac of the
	// ops (0 < HotFrac < 1) target the hot set, which occupies the first
	// HotSpan of the range (0 < HotSpan < 1).
	HotFrac, HotSpan float64
	// SubmitCost models per-op host submission overhead for async runs.
	SubmitCost sim.Duration
}

// Options customizes measurement and interleaving.
type Options struct {
	// Latency, when non-nil, records one sample per completed op.
	Latency *sim.LatencyRecorder
	// Bandwidth, when non-nil, aggregates completed bytes over windows.
	Bandwidth *sim.BandwidthWindow
	// BetweenOps, when non-nil, runs before every submission; it may inject
	// control-plane work (snapshot creates, activations) and must return
	// the possibly advanced time.
	BetweenOps func(now sim.Time) sim.Time
	// Scheduler, when non-nil, is drained up to each submission time so
	// background tasks interleave realistically.
	Scheduler *sim.Scheduler
}

// Result summarizes a run.
type Result struct {
	Ops     int64
	Bytes   int64
	Start   sim.Time
	End     sim.Time
	MBps    float64
	MeanLat sim.Duration
	MaxLat  sim.Duration
}

// Errors.
var ErrBadSpec = errors.New("workload: invalid spec")

func (s Spec) validate(dev blockdev.Device) error {
	ss := dev.SectorSize()
	switch {
	case s.BlockSize <= 0 || s.BlockSize%ss != 0:
		return fmt.Errorf("%w: BlockSize %d not a multiple of sector %d", ErrBadSpec, s.BlockSize, ss)
	case s.Threads <= 0:
		return fmt.Errorf("%w: Threads %d", ErrBadSpec, s.Threads)
	case s.QueueDepth <= 0:
		return fmt.Errorf("%w: QueueDepth %d", ErrBadSpec, s.QueueDepth)
	case s.TotalBytes == 0 && s.MaxOps == 0 && s.MaxTime == 0:
		return fmt.Errorf("%w: no stopping condition", ErrBadSpec)
	case s.Pattern == Zipf && s.ZipfS <= 1:
		return fmt.Errorf("%w: ZipfS %v must be > 1", ErrBadSpec, s.ZipfS)
	case s.Pattern == HotCold && !(s.HotFrac > 0 && s.HotFrac < 1 && s.HotSpan > 0 && s.HotSpan < 1):
		return fmt.Errorf("%w: HotCold needs 0 < HotFrac (%v) < 1 and 0 < HotSpan (%v) < 1", ErrBadSpec, s.HotFrac, s.HotSpan)
	}
	return nil
}

// thread is one logical submitter.
type thread struct {
	now     sim.Time
	ring    []sim.Time // completion times of outstanding ops
	ringIdx int
	seqNext int64 // next sequential LBA
}

// Run executes spec against dev starting at virtual time start and returns
// the result plus the time of the last completion.
func Run(dev blockdev.Device, start sim.Time, spec Spec, opts Options) (Result, sim.Time, error) {
	if err := spec.validate(dev); err != nil {
		return Result{}, start, err
	}
	ss := dev.SectorSize()
	sectorsPerOp := int64(spec.BlockSize / ss)
	lo, hi := spec.RangeLo, spec.RangeHi
	if hi == 0 {
		hi = dev.Sectors()
	}
	if hi-lo < sectorsPerOp {
		return Result{}, start, fmt.Errorf("%w: range [%d,%d) smaller than one op", ErrBadSpec, lo, hi)
	}
	span := hi - lo

	rng := sim.NewRNG(spec.Seed)
	var zipf *sim.Zipf
	if spec.Pattern == Zipf {
		zipf = sim.NewZipf(rng, spec.ZipfS, span/sectorsPerOp)
	}
	// HotCold geometry, in whole ops so every draw stays block-aligned.
	var hotOps, coldOps int64
	if spec.Pattern == HotCold {
		totalOps := span / sectorsPerOp
		hotOps = int64(float64(totalOps) * spec.HotSpan)
		if hotOps < 1 {
			hotOps = 1
		}
		coldOps = totalOps - hotOps
		if coldOps < 1 {
			return Result{}, start, fmt.Errorf("%w: HotSpan %v leaves no cold set", ErrBadSpec, spec.HotSpan)
		}
	}
	buf := make([]byte, spec.BlockSize)
	rng.Bytes(buf)

	threads := make([]*thread, spec.Threads)
	segment := span / int64(spec.Threads)
	for i := range threads {
		threads[i] = &thread{
			now:     start,
			ring:    make([]sim.Time, spec.QueueDepth),
			seqNext: lo + int64(i)*segment,
		}
	}

	var (
		res     = Result{Start: start}
		end     = start
		sumLat  sim.Duration
		maxLat  sim.Duration
		stopped bool
	)
	for !stopped {
		// Pick the thread whose clock is earliest.
		t := threads[0]
		for _, cand := range threads[1:] {
			if cand.now < t.now {
				t = cand
			}
		}
		now := t.now
		if spec.MaxTime > 0 && now >= spec.MaxTime {
			break
		}
		if opts.BetweenOps != nil {
			now = opts.BetweenOps(now)
		}
		if opts.Scheduler != nil {
			opts.Scheduler.RunUntil(now)
		}

		// Choose the LBA.
		var lba int64
		switch spec.Pattern {
		case Sequential:
			lba = t.seqNext
			t.seqNext += sectorsPerOp
			if t.seqNext+sectorsPerOp > hi {
				t.seqNext = lo
			}
			if lba+sectorsPerOp > hi {
				lba = lo
			}
		case Random:
			lba = lo + rng.Int63n(span-sectorsPerOp+1)
			lba = lba / sectorsPerOp * sectorsPerOp
		case Zipf:
			lba = lo + zipf.Next()*sectorsPerOp
		case HotCold:
			if rng.Float64() < spec.HotFrac {
				lba = lo + rng.Int63n(hotOps)*sectorsPerOp
			} else {
				lba = lo + (hotOps+rng.Int63n(coldOps))*sectorsPerOp
			}
		}

		var done sim.Time
		var err error
		if spec.Kind == Read {
			done, err = dev.Read(now, lba, buf)
		} else {
			done, err = dev.Write(now, lba, buf)
		}
		if err != nil {
			return res, end, fmt.Errorf("workload: op %d at LBA %d: %w", res.Ops, lba, err)
		}
		lat := done.Sub(now)
		sumLat += lat
		if lat > maxLat {
			maxLat = lat
		}
		if opts.Latency != nil {
			opts.Latency.Record(done, lat)
		}
		if opts.Bandwidth != nil {
			opts.Bandwidth.Add(done, int64(spec.BlockSize))
		}
		if done > end {
			end = done
		}
		res.Ops++
		res.Bytes += int64(spec.BlockSize)

		// Advance the submitter: synchronous waits for completion; queued
		// submission pays only submit cost but is back-pressured by the
		// completion of the op QueueDepth slots ago.
		if spec.QueueDepth == 1 {
			t.now = done
		} else {
			oldest := t.ring[t.ringIdx]
			t.ring[t.ringIdx] = done
			t.ringIdx = (t.ringIdx + 1) % spec.QueueDepth
			t.now = t.now.Add(spec.SubmitCost)
			if oldest > t.now {
				t.now = oldest
			}
		}

		if spec.TotalBytes > 0 && res.Bytes >= spec.TotalBytes {
			stopped = true
		}
		if spec.MaxOps > 0 && res.Ops >= spec.MaxOps {
			stopped = true
		}
	}
	res.End = end
	res.MBps = sim.Throughput(res.Bytes, end.Sub(start))
	if res.Ops > 0 {
		res.MeanLat = sumLat / sim.Duration(res.Ops)
	}
	res.MaxLat = maxLat
	return res, end, nil
}

// Fill sequentially writes [lo, hi) sectors once with blockSize-sized ops —
// the "prepare the device" step many experiments start with. It returns the
// completion time.
func Fill(dev blockdev.Device, start sim.Time, blockSize int, lo, hi int64, sched *sim.Scheduler) (sim.Time, error) {
	ss := dev.SectorSize()
	if blockSize%ss != 0 {
		return start, fmt.Errorf("%w: fill block %d", ErrBadSpec, blockSize)
	}
	sectorsPerOp := int64(blockSize / ss)
	buf := make([]byte, blockSize)
	now := start
	for lba := lo; lba+sectorsPerOp <= hi; lba += sectorsPerOp {
		if sched != nil {
			sched.RunUntil(now)
		}
		done, err := dev.Write(now, lba, buf)
		if err != nil {
			return now, fmt.Errorf("workload: fill at %d: %w", lba, err)
		}
		now = done
	}
	return now, nil
}
