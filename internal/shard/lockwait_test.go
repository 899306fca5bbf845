package shard

import (
	"testing"
	"time"
)

// TestLockWaitRecordsContention: a write that queues behind a holder of its
// shard's mutex shows up in that shard's wait histogram, and only there;
// every acquisition is counted, the uncontended ones included.
func TestLockWaitRecordsContention(t *testing.T) {
	svc, err := NewService(multiConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	buf := runPattern(svc.SectorSize(), 5, 1, 3)
	if err := svc.Write(5, buf); err != nil {
		t.Fatal(err)
	}
	const hold = 30 * time.Millisecond
	svc.shards[0].mu.Lock()
	done := make(chan error)
	go func() { done <- svc.Write(5, buf) }()
	time.Sleep(hold)
	svc.shards[0].mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	w := svc.Summary().LockWait
	if len(w) != 2 {
		t.Fatalf("%d lock-wait summaries for 2 shards", len(w))
	}
	// Shard 0: the two writes and the stats barrier; shard 1: the barrier.
	if w[0].N != 3 || w[1].N != 1 {
		t.Fatalf("acquisitions counted: %d and %d, want 3 and 1", w[0].N, w[1].N)
	}
	if w[0].Max < hold/2 || w[0].P99 < w[0].Max/2 {
		t.Fatalf("shard 0 waits p99 %v max %v, a write queued for about %v", w[0].P99, w[0].Max, hold)
	}
	if w[1].Max >= hold/2 || w[0].P50 > w[0].P99 {
		t.Fatalf("shard waits %+v: shard 1 never queued, and p50 <= p99", w)
	}
}
