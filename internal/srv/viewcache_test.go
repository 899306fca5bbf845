package srv

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"iosnap/internal/bitmap"
	"iosnap/internal/iosnap"
	"iosnap/internal/shard"
)

// baseFixture is a service with two snapshots of a run that straddles both
// shards, the older one cached, and the images both must read.
type baseFixture struct {
	svc              *shard.Service
	vc               *viewCache
	now              time.Time
	older, newer     iosnap.SnapshotID
	olderImg, newImg []byte
}

const fixtureLBA, fixtureSectors = 382, 4 // sectors 382-383 on shard 0, 384-385 on shard 1

func newBaseFixture(t *testing.T) *baseFixture {
	t.Helper()
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ss := svc.SectorSize()
	fx := &baseFixture{svc: svc, now: time.Unix(1000, 0)}
	fx.vc = newViewCache(svc, time.Second)
	fx.vc.now = func() time.Time { return fx.now }
	snap := func(data []byte, at int64) (iosnap.SnapshotID, []byte) {
		t.Helper()
		if err := svc.Write(at, data); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, fixtureSectors*ss)
		if err := svc.Read(fixtureLBA, img); err != nil {
			t.Fatal(err)
		}
		id, err := svc.CreateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return id, img
	}
	fx.older, fx.olderImg = snap(pattern('o', fixtureSectors, ss), fixtureLBA)
	if err := svc.Trim(fixtureLBA, 1); err != nil {
		t.Fatal(err)
	}
	fx.newer, fx.newImg = snap(pattern('n', 2, ss), fixtureLBA+1)
	_, release, err := fx.vc.acquire(fx.older)
	if err != nil {
		t.Fatal(err)
	}
	release()
	return fx
}

// reads reports whether view still serves img (false once deactivated).
func (fx *baseFixture) reads(t *testing.T, view *shard.ServiceView, img []byte) bool {
	t.Helper()
	buf := make([]byte, len(img))
	err := view.Read(fixtureLBA, buf)
	if errors.Is(err, iosnap.ErrViewClosed) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("view returned the wrong image")
	}
	return true
}

// TestViewCacheBaseHeldAcrossActivation: a miss activates from the newest
// cached view and holds it until the activation ends. A snap-delete, a TTL
// sweep or a drain that hits the base meanwhile defers its deactivation past
// the activation, and the new view reads its own snapshot.
func TestViewCacheBaseHeldAcrossActivation(t *testing.T) {
	for _, hit := range []string{"snap-delete", "sweep", "drain"} {
		t.Run(hit, func(t *testing.T) {
			fx := newBaseFixture(t)
			vc := fx.vc
			started, proceed := make(chan *shard.ServiceView), make(chan struct{})
			vc.activate = func(id iosnap.SnapshotID, base *shard.ServiceView) (*shard.ServiceView, error) {
				started <- base
				<-proceed
				return fx.svc.ActivateFrom(id, base)
			}
			type result struct {
				view    *shard.ServiceView
				release func()
				err     error
			}
			done := make(chan result)
			go func() {
				v, rel, err := vc.acquire(fx.newer)
				done <- result{v, rel, err}
			}()
			base := <-started
			if base == nil {
				t.Fatal("the miss activated without the cached view as its base")
			}
			switch hit {
			case "snap-delete":
				vc.invalidate(fx.older)
				if err := fx.svc.DeleteSnapshot(fx.older); err != nil {
					t.Fatal(err)
				}
			case "sweep":
				fx.now = fx.now.Add(time.Hour)
				vc.sweep()
			case "drain":
				vc.drain()
			}
			if !fx.reads(t, base, fx.olderImg) {
				t.Fatalf("%s deactivated the base under an activation", hit)
			}
			close(proceed)
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !fx.reads(t, r.view, fx.newImg) {
				t.Fatal("the new view is closed")
			}
			if hit == "sweep" {
				// Not doomed: the base lives on until a sweep finds it idle,
				// and the activation's ref did not stamp its idle clock.
				if !fx.reads(t, base, fx.olderImg) {
					t.Fatal("the base was deactivated without being doomed")
				}
				vc.sweep()
			}
			if fx.reads(t, base, fx.olderImg) {
				t.Fatal("the base outlived its activation")
			}
			r.release()
			vc.drain()
			if _, _, _, _, live := vc.counters(); live != 0 {
				t.Fatalf("%d views cached after the drain", live)
			}
			if fx.reads(t, r.view, fx.newImg) {
				t.Fatal("the drain left the new view active")
			}
			if err := fx.svc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestViewCacheFailedBasedActivationBalancesRefs: a based activation that
// fails drops its entry and its ref on the base, so the base is the only
// view cached and an invalidate deactivates it at once.
func TestViewCacheFailedBasedActivationBalancesRefs(t *testing.T) {
	fx := newBaseFixture(t)
	vc := fx.vc
	var base *shard.ServiceView
	vc.activate = func(id iosnap.SnapshotID, b *shard.ServiceView) (*shard.ServiceView, error) {
		base = b
		return fx.svc.ActivateFrom(id, b)
	}
	if _, _, err := vc.acquire(fx.newer + 100); err == nil {
		t.Fatal("activating a snapshot that does not exist succeeded")
	}
	if base == nil {
		t.Fatal("the failed activation had no base")
	}
	hits, misses, _, _, live := vc.counters()
	if hits != 0 || misses != 2 || live != 1 {
		t.Fatalf("hits=%d misses=%d live=%d, want 0/2/1", hits, misses, live)
	}
	vc.mu.Lock()
	refs := vc.entries[fx.older].refs
	vc.mu.Unlock()
	if refs != 0 {
		t.Fatalf("the base holds %d refs after the failed activation", refs)
	}
	vc.invalidate(fx.older)
	if fx.reads(t, base, fx.olderImg) {
		t.Fatal("an idle invalidated base stayed active")
	}
	if err := fx.svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestValidityMemoryFollowsLiveSnapshots: 300 cycles of snap-create, a
// snap-read of the newest snapshot (which the view cache activates) and,
// once three are held, a snap-delete of the oldest. What each shard keeps
// of its validity maps must follow the live snapshots and the cached views,
// not the snapshots ever taken: no checkpoint runs, so nothing but the
// delete and the view cache's deactivations can free a dead epoch's pages.
func TestValidityMemoryFollowsLiveSnapshots(t *testing.T) {
	cfg := testShardConfig(4)
	// Every snapshot operation leaves a note that stays valid for good:
	// four per shard per cycle, 1 200 by the end.
	cfg.Base.Nand.Segments = 512
	cfg.Base.BitmapPageBits = bitmap.DefaultBitsPerPage // one validity page covers a shard
	svc, err := shard.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ss := svc.SectorSize()
	if err := c.Write(0, pattern('a', 64, ss)); err != nil {
		t.Fatal(err)
	}
	const page = bitmap.DefaultBitsPerPage / 8
	var held []uint64
	for cycle := 1; cycle <= 300; cycle++ {
		if err := c.Write(int64(cycle%64), pattern(byte(cycle), 1, ss)); err != nil {
			t.Fatal(err)
		}
		id, err := c.SnapCreate()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if _, err := c.SnapRead(id, int64(cycle%64), 1); err != nil {
			t.Fatal(err)
		}
		if held = append(held, id); len(held) > 3 {
			if err := c.SnapDelete(held[0]); err != nil {
				t.Fatal(err)
			}
			held = held[1:]
		}
		if cycle%50 != 0 {
			continue
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		limit := int64(st.LiveSnapshots+st.ViewCacheLive+2) * page
		for i, p := range st.PerShard {
			if p.Checkpoints != 0 {
				t.Fatalf("cycle %d: shard %d took a checkpoint", cycle, i)
			}
			if p.ValidityMemory > limit {
				t.Fatalf("cycle %d: shard %d holds %d B of validity pages, want at most %d (%d live snapshots, %d cached views, 2 more pages)",
					cycle, i, p.ValidityMemory, limit, st.LiveSnapshots, st.ViewCacheLive)
			}
		}
	}
}
