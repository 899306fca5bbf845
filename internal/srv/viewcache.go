package srv

import (
	"sync"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/shard"
)

// viewCache keeps activated snapshot views alive across snap-read
// requests. Before it existed every snap-read paid a full activate (a
// durable note plus a rate-limited log scan) and deactivate (another
// note) — per request. The cache activates a snapshot once on first read,
// hands out refcounted references to the ServiceView, and deactivates it
// only when the snapshot is deleted or the view has sat idle past the
// TTL. Snap-reads of a hot snapshot therefore cost exactly what live
// reads cost: the shard fan-out and nothing else.
//
// Lifecycle rules:
//
//   - acquire either joins an existing entry (ref++), waits on an
//     activation already in flight (single-flight: concurrent first reads
//     of the same snapshot trigger one activation), or starts one. A new
//     activation builds from a base when it can: the ready, undoomed entry
//     with the highest snapshot ID, whose map the cleaner keeps current, so
//     it scans only the delta between the two. The activation holds a ref
//     on its base until it ends, so invalidate, sweep and drain defer the
//     base's deactivation past it; that ref does not stamp the idle clock.
//   - release drops the ref and stamps the idle clock. A doomed entry
//     (invalidated or expired while readers were inside) deactivates on
//     the last release.
//   - invalidate removes the entry immediately — new acquires re-resolve
//     against the service, so a deleted snapshot fails with the service's
//     own error — and deactivates now (or on last release). The server
//     calls it before every snap-delete so the delete never observes the
//     cache's activation, and the snapshot's blocks become reclaimable.
//   - sweep deactivates entries idle past the TTL; drain (server
//     shutdown) deactivates everything regardless of age.
//
// Deactivation always happens outside the cache mutex: it fans out to the
// shard workers and must not block acquire/release on other snapshots.
type viewCache struct {
	svc *shard.Service
	ttl time.Duration
	now func() time.Time // hookable for expiry tests
	// activate is svc.ActivateFrom, hookable to hold an activation in flight.
	activate func(iosnap.SnapshotID, *shard.ServiceView) (*shard.ServiceView, error)

	mu      sync.Mutex
	entries map[iosnap.SnapshotID]*cachedView

	// Counters (guarded by mu) surfaced through ServerStats.
	hits          int64
	misses        int64
	expiries      int64
	invalidations int64
}

type cachedView struct {
	view     *shard.ServiceView
	err      error         // terminal activation error (entry already removed)
	ready    chan struct{} // closed when view/err is decided
	refs     int
	doomed   bool // deactivate on last release
	lastUsed time.Time
}

func newViewCache(svc *shard.Service, ttl time.Duration) *viewCache {
	return &viewCache{
		svc:      svc,
		ttl:      ttl,
		now:      time.Now,
		activate: svc.ActivateFrom,
		entries:  make(map[iosnap.SnapshotID]*cachedView),
	}
}

// acquire returns an activated view of snapshot id plus a release func the
// caller must invoke once it is done reading. The entry stays cached (and
// the snapshot stays activated) after release.
func (vc *viewCache) acquire(id iosnap.SnapshotID) (*shard.ServiceView, func(), error) {
	vc.mu.Lock()
	if e, ok := vc.entries[id]; ok && !e.doomed {
		e.refs++
		vc.hits++
		vc.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// Activation failed; the starter already removed the entry.
			return nil, nil, e.err
		}
		return e.view, func() { vc.unref(e, true) }, nil
	}
	e := &cachedView{ready: make(chan struct{}), refs: 1, lastUsed: vc.now()}
	vc.entries[id] = e
	vc.misses++
	var base *cachedView
	var baseID iosnap.SnapshotID
	for bid, b := range vc.entries {
		if b.view != nil && !b.doomed && (base == nil || bid > baseID) {
			base, baseID = b, bid
		}
	}
	var baseView *shard.ServiceView
	if base != nil {
		base.refs++
		baseView = base.view
	}
	vc.mu.Unlock()

	view, err := vc.activate(id, baseView)
	if base != nil {
		vc.unref(base, false)
	}
	vc.mu.Lock()
	e.view, e.err = view, err
	if err != nil && vc.entries[id] == e {
		delete(vc.entries, id)
	}
	close(e.ready)
	vc.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return view, func() { vc.unref(e, true) }, nil
}

// unref drops one reference, a reader's (read: stamp the idle clock) or a
// based activation's. The last release of a doomed entry deactivates the
// view.
func (vc *viewCache) unref(e *cachedView, read bool) {
	vc.mu.Lock()
	e.refs--
	if read {
		e.lastUsed = vc.now()
	}
	deactivate := e.refs == 0 && e.doomed && e.view != nil
	vc.mu.Unlock()
	if deactivate {
		e.view.Deactivate()
	}
}

// invalidate removes id from the cache (new acquires re-resolve against
// the service) and deactivates its view — immediately when idle, on the
// last release when readers are still inside. In-flight readers finish
// safely: the activation epoch keeps the snapshot's blocks live until the
// deferred deactivate.
func (vc *viewCache) invalidate(id iosnap.SnapshotID) {
	vc.mu.Lock()
	e, ok := vc.entries[id]
	if !ok {
		vc.mu.Unlock()
		return
	}
	delete(vc.entries, id)
	e.doomed = true
	vc.invalidations++
	ready := e.ready
	vc.mu.Unlock()

	// An activation may still be in flight; its view (or error) must be
	// decided before we can deactivate it.
	<-ready
	vc.mu.Lock()
	deactivate := e.refs == 0 && e.view != nil
	vc.mu.Unlock()
	if deactivate {
		e.view.Deactivate()
	}
}

// sweep deactivates idle entries older than the TTL. It never touches an
// entry with readers inside or an activation still in flight.
func (vc *viewCache) sweep() {
	cutoff := vc.now().Add(-vc.ttl)
	var victims []*cachedView
	vc.mu.Lock()
	for id, e := range vc.entries {
		select {
		case <-e.ready:
		default:
			continue // activation in flight
		}
		if e.refs == 0 && e.view != nil && e.lastUsed.Before(cutoff) {
			delete(vc.entries, id)
			e.doomed = true
			vc.expiries++
			victims = append(victims, e)
		}
	}
	vc.mu.Unlock()
	for _, e := range victims {
		e.view.Deactivate()
	}
}

// drain deactivates every cached view. Called after the last connection
// finished (so refs are zero) and before the server hands the still-open
// service back to its owner.
func (vc *viewCache) drain() {
	var victims []*cachedView
	vc.mu.Lock()
	for id, e := range vc.entries {
		delete(vc.entries, id)
		e.doomed = true
		select {
		case <-e.ready:
			if e.refs == 0 && e.view != nil {
				victims = append(victims, e)
			}
		default:
			// Activation still in flight; its acquirer's release deactivates.
		}
	}
	vc.mu.Unlock()
	for _, e := range victims {
		e.view.Deactivate()
	}
}

// counters snapshots the stats counters plus the live entry count.
func (vc *viewCache) counters() (hits, misses, expiries, invalidations int64, live int) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.hits, vc.misses, vc.expiries, vc.invalidations, len(vc.entries)
}
