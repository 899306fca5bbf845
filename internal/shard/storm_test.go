package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"iosnap/internal/model"
)

// TestServiceStorm is the race-detector torture test for service mode:
// several client goroutines hammer reads, writes, and trims while another
// churns the snapshot lifecycle (create barrier, activate, view reads,
// deactivate, delete) across all shards. Each client owns a disjoint LBA
// region, so it can verify its own read-after-write content exactly even
// though the global interleaving is nondeterministic; some regions straddle
// a shard boundary, so their clients' runs contend for two shards' locks.
func TestServiceStorm(t *testing.T) {
	cfg := multiConfig(4)
	// Snapshots pin overwritten epochs until deleted, so the storm needs
	// real over-provisioning headroom: double the segments, same
	// advertised capacity.
	cfg.Base.Nand.Segments = 64
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := svc.SectorSize()

	const clients = 6
	const opsPerClient = 120
	region := svc.Sectors() / clients
	straddles := 0
	for c := int64(0); c < clients; c++ {
		if len(svc.cfg.extents(c*region, region, nil)) > 1 {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("no client region straddles a shard boundary")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			base := int64(c) * region
			buf := make([]byte, 64*ss)
			im := model.NewImage()
			for op := 0; op < opsPerClient; op++ {
				n := int64(1 + rng.Intn(64))
				lba := base + rng.Int63n(region-n+1)
				switch rng.Intn(10) {
				case 0: // trim, then confirm zeros
					if err := svc.Trim(lba, n); err != nil {
						errCh <- fmt.Errorf("client %d trim: %w", c, err)
						return
					}
					for s := lba; s < lba+n; s++ {
						im.Trim(s)
					}
				default:
					v := uint64(op + 1)
					want := model.Sectors(ss, lba, int(n), v)
					if err := svc.Write(lba, want); err != nil {
						errCh <- fmt.Errorf("client %d write: %w", c, err)
						return
					}
					for s := lba; s < lba+n; s++ {
						im.Write(s, v)
					}
					if err := svc.Read(lba, buf[:n*int64(ss)]); err != nil {
						errCh <- fmt.Errorf("client %d read: %w", c, err)
						return
					}
					if string(buf[:n*int64(ss)]) != string(want) {
						errCh <- fmt.Errorf("client %d: read-after-write mismatch at lba %d", c, lba)
						return
					}
				}
			}
			// Final sweep: every sector in the region holds its last
			// version; a trimmed or never-written one reads zeros.
			one := make([]byte, ss)
			for s := base; s < base+region; s++ {
				if err := svc.Read(s, one); err != nil {
					errCh <- fmt.Errorf("client %d sweep read: %w", c, err)
					return
				}
				if !model.Check(one, s, im.Version(s)) {
					errCh <- fmt.Errorf("client %d: sweep mismatch at lba %d", c, s)
					return
				}
			}
		}(c)
	}

	// Snapshot churner: lifecycle ops riding across all shards while the
	// clients run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		buf := make([]byte, 32*ss)
		for k := 0; k < 12; k++ {
			id, err := svc.CreateSnapshot()
			if err != nil {
				errCh <- fmt.Errorf("snapshot create: %w", err)
				return
			}
			view, err := svc.ActivateSync(id, false)
			if err != nil {
				errCh <- fmt.Errorf("activate %d: %w", id, err)
				return
			}
			// Frozen-image reads race with live writes by design; content
			// is checked by the barrier test, here we only demand they
			// complete without error.
			for j := 0; j < 4; j++ {
				lba := rng.Int63n(svc.Sectors() - 32)
				if err := view.Read(lba, buf); err != nil {
					errCh <- fmt.Errorf("view read: %w", err)
					return
				}
			}
			if err := view.Deactivate(); err != nil {
				errCh <- fmt.Errorf("deactivate %d: %w", id, err)
				return
			}
			if err := svc.DeleteSnapshot(id); err != nil {
				errCh <- fmt.Errorf("delete %d: %w", id, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if svc.MaxVirtualTime() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: got %v, want ErrClosed", err)
	}
	if err := svc.Write(0, make([]byte, ss)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close: got %v, want ErrClosed", err)
	}
}

// TestServiceSnapshotAtomicity is the race-detector storm for the locking
// model: writers whose runs straddle shard boundaries stamp every sector of
// a write with one version, while another goroutine loops snapshot create →
// activate → read → deactivate → delete. A multi-shard write locks every
// shard it touches before executing, and the create barrier locks them all,
// so every snapshot must show each write entirely or not at all.
func TestServiceSnapshotAtomicity(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		cfg := multiConfig(4)
		cfg.Base.Nand.Segments = 64 // snapshots pin overwritten epochs until deleted
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		ss := svc.SectorSize()
		per := svc.Sectors() / 4
		// One run across each shard boundary, one inside a shard.
		const n = 40
		lbas := []int64{per - n/2, 2*per - n/2, 3*per - n/2, 2*per + n}
		for _, lba := range lbas {
			if err := svc.Write(lba, runPattern(ss, lba, n, 1)); err != nil {
				t.Fatal(err)
			}
		}

		const rounds = 80
		var wg sync.WaitGroup
		var writing atomic.Int32
		for _, lba := range lbas {
			wg.Add(1)
			writing.Add(1)
			go func(lba int64) {
				defer wg.Done()
				defer writing.Add(-1)
				for r := 0; r < rounds; r++ {
					if err := svc.Write(lba, runPattern(ss, lba, n, byte(2+r))); err != nil {
						t.Errorf("write lba %d round %d: %v", lba, r, err)
						return
					}
				}
			}(lba)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, n*ss)
			for snaps := 0; snaps < 8 || writing.Load() > 0; snaps++ {
				id, err := svc.CreateSnapshot()
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				view, err := svc.ActivateSync(id, false)
				if err != nil {
					t.Errorf("activate %d: %v", id, err)
					return
				}
				for _, lba := range lbas {
					if err := view.Read(lba, buf); err != nil {
						t.Errorf("view read: %v", err)
						return
					}
					// The version is whatever the first sector carries; the
					// whole run must carry the same one.
					ver := buf[0] ^ byte(lba) ^ byte(lba>>8)
					if string(buf) != string(runPattern(ss, lba, n, ver)) {
						t.Errorf("snapshot %d holds a torn write at lba %d (first sector at version %d)", id, lba, ver)
						return
					}
				}
				if err := view.Deactivate(); err != nil {
					t.Errorf("deactivate %d: %v", id, err)
					return
				}
				if err := svc.DeleteSnapshot(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
			}
		}()
		wg.Wait()
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServiceCloseRacesOps: Close is a barrier racing in-flight callers of
// every kind. Each of them ends with ErrClosed and nothing else, nobody
// deadlocks (the test would time out), and Close itself succeeds.
func TestServiceCloseRacesOps(t *testing.T) {
	cfg := multiConfig(4)
	cfg.Base.Nand.Segments = 64
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := svc.SectorSize()
	var wg sync.WaitGroup
	var ops atomic.Int64
	loop := func(step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := step(i); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("op racing Close: %v", err)
					}
					return
				}
				ops.Add(1)
			}
		}()
	}
	for c := int64(0); c < 4; c++ {
		base := c * 100
		buf := make([]byte, 40*ss)
		loop(func(i int) error {
			lba := base + int64(i%50)
			switch i % 3 {
			case 0:
				return svc.Write(lba, buf)
			case 1:
				return svc.Read(lba, buf)
			default:
				return svc.Trim(lba, 40)
			}
		})
	}
	loop(func(int) error {
		id, err := svc.CreateSnapshot()
		if err != nil {
			return err
		}
		view, err := svc.ActivateSync(id, false)
		if err != nil {
			return err
		}
		if err := view.Deactivate(); err != nil {
			return err
		}
		return svc.DeleteSnapshot(id)
	})
	var closed atomic.Bool
	loop(func(int) error { // the barriers that stay legal on a closed service
		svc.Summary()
		if closed.Load() {
			return ErrClosed
		}
		return svc.CheckInvariants()
	})
	for ops.Load() < 200 {
		runtime.Gosched()
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close racing in-flight ops: %v", err)
	}
	closed.Store(true)
	wg.Wait()
}
