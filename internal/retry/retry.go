// Package retry is the shared media-retry policy both FTLs apply to NAND
// operations. Flash errors split into two classes: transient ones (a read
// that needs another sensing pass, a program disturbed by a neighbour)
// clear on their own and are worth bounded re-attempts; permanent ones
// (wear-out, a grown bad block) never clear and should instead mark the
// segment suspect so rescue and retirement can deal with it. Policy
// implements the first half of that split; MediaFailure classifies the
// second.
//
// Backoff is virtual time: a retried operation is simply re-submitted at a
// later sim.Time, so retries cost simulated latency — visible in every
// experiment — without any real-world sleeping.
package retry

import (
	"errors"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Policy bounds the retry loop. The zero value performs no retries, so an
// unconfigured FTL behaves exactly as before this package existed.
type Policy struct {
	// MaxAttempts is the total number of attempts per operation (first try
	// included); values below 1 mean a single attempt.
	MaxAttempts int
	// Backoff is the virtual-time delay before the second attempt; it
	// doubles for each further attempt.
	Backoff sim.Duration
}

// Default is the policy the log engine under both FTLs retries every NAND
// operation with: three attempts with a 100µs initial backoff, enough to
// clear any faultinject.KindTransient episode with Times ≤ 2.
func Default() Policy {
	return Policy{MaxAttempts: 3, Backoff: 100 * sim.Microsecond}
}

// Transient reports whether err is worth retrying. Detected payload
// corruption counts: a corruption injected on the read path clears on the
// next sensing pass, and only a re-read can tell it apart from bits that
// really flipped in the cells.
func Transient(err error) bool {
	return errors.Is(err, nand.ErrTransient) ||
		errors.Is(err, nand.ErrCorruptData)
}

// MediaFailure reports whether err is a permanent media failure that should
// mark the affected segment suspect: wear-out, a device failure, or a
// transient/corrupt-data error that survived the whole retry budget. Power
// loss and logic errors (bad address, out-of-order program, ...) are not
// media failures — crashing is not the medium's fault, and logic errors are
// bugs.
func MediaFailure(err error) bool {
	return errors.Is(err, nand.ErrDeviceFailed) ||
		errors.Is(err, nand.ErrWornOut) ||
		errors.Is(err, nand.ErrTransient) ||
		errors.Is(err, nand.ErrCorruptData)
}

// Do runs op, retrying the failures retryable accepts within the policy's
// budget. op receives the virtual submit time of its attempt and returns its
// completion time. Do returns the final attempt's completion time, the
// number of retries performed (0 when the first attempt decided), and the
// final error. The log engine passes Transient; retry loops above the NAND
// layer pass their own classifier — the snapshot transport re-drives a
// transfer on stream-level errors (truncation, a bit-flipped frame, a chunk
// hash mismatch) that the media check knows nothing about.
func (p Policy) Do(now sim.Time, retryable func(error) bool, op func(sim.Time) (sim.Time, error)) (done sim.Time, retries int64, err error) {
	done, err = op(now)
	if err == nil {
		return done, 0, nil
	}
	return p.doFrom(now, 1, err, retryable, op)
}

// DoFrom continues a Transient retry schedule whose first `attempted`
// attempts already ran elsewhere — the batched data path's case, where a
// multi-page device call counts as each page's first attempt and only the
// failing page re-enters the per-page loop. lastErr is the most recent
// attempt's error, observed at virtual time now; DoFrom performs the
// remaining attempts with the backoff schedule continuing where Do's would
// be (the delay before attempt k+1 is Backoff·2^(k-1)). retries counts only
// the attempts DoFrom itself performs, so a caller adding them to a stats
// counter matches Do's accounting exactly: total attempts - 1.
func (p Policy) DoFrom(now sim.Time, attempted int, lastErr error, op func(sim.Time) (sim.Time, error)) (done sim.Time, retries int64, err error) {
	return p.doFrom(now, attempted, lastErr, Transient, op)
}

func (p Policy) doFrom(now sim.Time, attempted int, lastErr error, retryable func(error) bool, op func(sim.Time) (sim.Time, error)) (done sim.Time, retries int64, err error) {
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	if attempted < 1 {
		attempted = 1
	}
	backoff := p.Backoff
	for i := 1; i < attempted; i++ {
		backoff *= 2
	}
	done, err = now, lastErr
	for attempt := attempted; err != nil && retryable(err) && attempt < maxAttempts; attempt++ {
		retries++
		now = now.Add(backoff)
		backoff *= 2
		done, err = op(now)
	}
	return done, retries, err
}
