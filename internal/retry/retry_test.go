package retry

import (
	"errors"
	"fmt"
	"testing"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

func TestDoSucceedsAfterTransients(t *testing.T) {
	p := Policy{MaxAttempts: 3, Backoff: 100 * sim.Microsecond}
	attempts := 0
	var submits []sim.Time
	done, retries, err := p.Do(0, Transient, func(at sim.Time) (sim.Time, error) {
		attempts++
		submits = append(submits, at)
		if attempts < 3 {
			return at, fmt.Errorf("wrapped: %w", nand.ErrTransient)
		}
		return at.Add(40 * sim.Microsecond), nil
	})
	if err != nil || attempts != 3 || retries != 2 {
		t.Fatalf("err=%v attempts=%d retries=%d", err, attempts, retries)
	}
	// Exponential virtual-time backoff: 0, +100µs, +200µs more.
	want := []sim.Time{0, sim.Time(100 * sim.Microsecond), sim.Time(300 * sim.Microsecond)}
	for i := range want {
		if submits[i] != want[i] {
			t.Fatalf("submit times %v, want %v", submits, want)
		}
	}
	if done != want[2].Add(40*sim.Microsecond) {
		t.Fatalf("done = %v", done)
	}
}

func TestDoGivesUpAfterBudget(t *testing.T) {
	p := Policy{MaxAttempts: 2, Backoff: sim.Microsecond}
	attempts := 0
	_, retries, err := p.Do(0, Transient, func(at sim.Time) (sim.Time, error) {
		attempts++
		return at, nand.ErrTransient
	})
	if !errors.Is(err, nand.ErrTransient) || attempts != 2 || retries != 1 {
		t.Fatalf("err=%v attempts=%d retries=%d", err, attempts, retries)
	}
}

func TestDoDoesNotRetryPermanentErrors(t *testing.T) {
	p := Default()
	for _, perm := range []error{nand.ErrDeviceFailed, nand.ErrWornOut, nand.ErrNotErased} {
		attempts := 0
		_, retries, err := p.Do(0, Transient, func(at sim.Time) (sim.Time, error) {
			attempts++
			return at, perm
		})
		if !errors.Is(err, perm) || attempts != 1 || retries != 0 {
			t.Fatalf("%v: attempts=%d retries=%d err=%v", perm, attempts, retries, err)
		}
	}
}

func TestZeroValuePolicySingleAttempt(t *testing.T) {
	var p Policy
	attempts := 0
	_, retries, err := p.Do(0, Transient, func(at sim.Time) (sim.Time, error) {
		attempts++
		return at, nand.ErrTransient
	})
	if attempts != 1 || retries != 0 || err == nil {
		t.Fatalf("zero policy: attempts=%d retries=%d err=%v", attempts, retries, err)
	}
}

func TestClassifiers(t *testing.T) {
	if !Transient(fmt.Errorf("x: %w", nand.ErrTransient)) || Transient(nand.ErrDeviceFailed) {
		t.Fatal("Transient misclassifies")
	}
	for _, err := range []error{nand.ErrDeviceFailed, nand.ErrWornOut, nand.ErrTransient} {
		if !MediaFailure(err) {
			t.Fatalf("%v should be a media failure", err)
		}
	}
	for _, err := range []error{nand.ErrNotErased, nand.ErrBadAddress, nand.ErrOutOfOrder, errors.New("faultinject: device lost power")} {
		if MediaFailure(err) {
			t.Fatalf("%v should not be a media failure", err)
		}
	}
}

// TestDoFromContinuesSchedule: splitting a retry sequence into "first
// attempt elsewhere + DoFrom for the rest" must reproduce Do's attempt
// times and its retry count exactly — that is what lets the batched data
// path count a failed multi-page call as each page's first attempt.
func TestDoFromContinuesSchedule(t *testing.T) {
	p := Policy{MaxAttempts: 4, Backoff: 100 * sim.Microsecond}
	run := func(split bool) (times []sim.Time, retries int64, err error) {
		failures := 2 // succeed on attempt 3
		op := func(at sim.Time) (sim.Time, error) {
			times = append(times, at)
			if failures > 0 {
				failures--
				return at, nand.ErrTransient
			}
			return at.Add(5 * sim.Microsecond), nil
		}
		now := sim.Time(1000)
		if !split {
			_, retries, err = p.Do(now, Transient, op)
			return times, retries, err
		}
		_, firstErr := op(now)
		failuresSeen := int64(0)
		_, failRetries, err := p.DoFrom(now, 1, firstErr, op)
		retries = failuresSeen + failRetries
		return times, retries, err
	}
	doTimes, doRetries, doErr := run(false)
	fromTimes, fromRetries, fromErr := run(true)
	if fmt.Sprint(doTimes) != fmt.Sprint(fromTimes) {
		t.Fatalf("attempt times differ: Do %v, DoFrom %v", doTimes, fromTimes)
	}
	if doRetries != fromRetries || (doErr == nil) != (fromErr == nil) {
		t.Fatalf("retries/err differ: Do (%d,%v), DoFrom (%d,%v)", doRetries, doErr, fromRetries, fromErr)
	}
}

// TestDoFromExhaustedBudget: when the prior attempts already consumed the
// whole budget, DoFrom performs no attempts and reports the prior error.
func TestDoFromExhaustedBudget(t *testing.T) {
	p := Policy{MaxAttempts: 2, Backoff: time100()}
	calls := 0
	done, retries, err := p.DoFrom(500, 2, nand.ErrTransient, func(at sim.Time) (sim.Time, error) {
		calls++
		return at, nil
	})
	if calls != 0 || retries != 0 || done != 500 || !Transient(err) {
		t.Fatalf("calls=%d retries=%d done=%v err=%v", calls, retries, done, err)
	}
}

func time100() sim.Duration { return 100 * sim.Microsecond }

// TestDoRetryableCustomClassifier: transport-level errors unknown to the
// media Transient check retry under a caller-supplied classifier, and
// non-retryable errors stop the loop immediately.
func TestDoRetryableCustomClassifier(t *testing.T) {
	errFrame := errors.New("xport: bad frame")
	errFatal := errors.New("xport: manifest mismatch")
	retryable := func(err error) bool { return errors.Is(err, errFrame) }

	p := Policy{MaxAttempts: 3, Backoff: time100()}
	calls := 0
	_, retries, err := p.Do(0, retryable, func(at sim.Time) (sim.Time, error) {
		calls++
		if calls < 3 {
			return at, errFrame
		}
		return at, nil
	})
	if err != nil || retries != 2 || calls != 3 {
		t.Fatalf("retryable frame error: err=%v retries=%d calls=%d", err, retries, calls)
	}

	calls = 0
	_, retries, err = p.Do(0, retryable, func(at sim.Time) (sim.Time, error) {
		calls++
		return at, errFatal
	})
	if !errors.Is(err, errFatal) || retries != 0 || calls != 1 {
		t.Fatalf("fatal error must not retry: err=%v retries=%d calls=%d", err, retries, calls)
	}
}

// TestCorruptDataIsTransientAndMediaFailure: detected payload corruption is
// retry-worthy (read-side damage clears on a re-read) and, if it survives
// the budget, counts as a media failure for suspect-marking.
func TestCorruptDataIsTransientAndMediaFailure(t *testing.T) {
	if !Transient(nand.ErrCorruptData) {
		t.Fatal("ErrCorruptData must be transient")
	}
	if !MediaFailure(nand.ErrCorruptData) {
		t.Fatal("ErrCorruptData must be a media failure")
	}
}
