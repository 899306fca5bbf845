// Command iosnapctl operates an ioSnap device persisted to an image file.
// Every invocation reloads the NAND image and runs crash recovery to
// rebuild the FTL state. Mutating verbs checkpoint on save, so the next
// invocation mounts tail-bounded from the anchored checkpoint; without one
// (crash, torn checkpoint, stale generation) recovery falls back to the
// paper's full two-pass log scan.
//
// Usage:
//
//	iosnapctl -image dev.img init [-megabytes 64] [-sector 4096]
//	iosnapctl -image dev.img write -lba N [-text "..."] [-count k]
//	iosnapctl -image dev.img read -lba N [-count k]
//	iosnapctl -image dev.img trim -lba N [-count k]
//	iosnapctl -image dev.img snap-create
//	iosnapctl -image dev.img snap-delete -id N
//	iosnapctl -image dev.img snap-list
//	iosnapctl -image dev.img snap-read -id N -lba L [-count k]
//	iosnapctl -image dev.img export -id N -out stream.bin [-base M] [-basegen replica.img.gen]
//	iosnapctl -image replica.img import -in stream.bin [-abort-after N]
//	iosnapctl -image dev.img replicate -id N -dst replica.img [-base M] [-attempts N]
//	iosnapctl -image replica.img verify [-gen replica.img.gen]
//	iosnapctl -image dev.img stats
//	iosnapctl -image dev.img check
//	iosnapctl -image dev.img health
//	iosnapctl faultdemo [-plan gc-copy|torn-note|crash-scan|random|transient|wear-out|none] [-seed N] [-steps N] [-prob P]
//	iosnapctl -remote host:port {ping|write|read|trim|snap-create|snap-delete|snap-read|stats|shutdown} [flags]
//
// With -remote, the verb runs against a live iosnapd (see cmd/iosnapd)
// instead of reloading an image: the same -lba/-count/-text/-id flags
// apply, no -image is needed, and shutdown asks the server to checkpoint
// and persist its images. stats additionally reports per-shard virtual
// clocks (shard skew) and snapshot-view-cache effectiveness. Load against
// a daemon is the benchmark's job (bench/).
//
// The replication verbs speak the internal/xport transport. export writes a
// self-checking chunk stream (no activation needed; with -base only the
// delta between the two snapshots is shipped). import applies a stream to
// the image, journaling progress in IMAGE.journal so an interrupted import
// — simulate one with -abort-after — resumes instead of restarting, and
// recording the committed generation manifest in IMAGE.gen. replicate runs
// the whole pipeline (export, receive, verify, bounded retry) from the
// source image onto -dst, incremental when -base names the previously
// replicated snapshot. verify re-hashes every sector the generation
// manifest defines and exits non-zero on any mismatch.
//
// check reloads the image, crash-recovers, and runs the full invariant
// checker over the rebuilt state; health reports per-segment media health
// (suspect/retired segments, wear, degradation). Both — like every other
// verb — exit non-zero on failure, so scripts can gate on them.
//
// faultdemo needs no image: it drives the randomized torture harness
// against an in-memory device with a fault plan armed and prints the run
// report, demonstrating that every injected fault is either surfaced as an
// error or survived with invariants intact. The transient plan injects
// retryable read/program faults the retry policy must absorb; the wear-out
// plan combines an erase budget (erases past it fail probabilistically,
// retiring segments after rescue), 1% transient faults, an armed scrubber,
// and three crash/recover cycles.
package main

import (
	"flag"
	"fmt"
	"os"

	"iosnap/internal/faultinject"
	"iosnap/internal/header"
	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/vfs"
	"iosnap/internal/xport"
)

// fsys is the filesystem every image and sidecar access goes through: the
// image load, the image and sidecar writes, the transfer stream read and the
// journal removal. Tests swap in a faulting or in-memory implementation.
var fsys vfs.FileSystem = vfs.OS{}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iosnapctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("iosnapctl", flag.ContinueOnError)
	image := global.String("image", "", "device image path (required unless -remote)")
	remote := global.String("remote", "", "iosnapd address (host:port); verbs run against the server instead of an image")
	mapCache := global.Int("mapcache", 0,
		"translation-page cache size in pages (0 = in-RAM map)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: iosnapctl -image FILE COMMAND [flags] (run with -h for commands)")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	// faultdemo runs against an in-memory device and needs no image.
	if cmd == "faultdemo" {
		return cmdFaultDemo(cmdArgs)
	}
	if *remote != "" {
		return runRemote(*remote, cmd, cmdArgs)
	}
	if *image == "" {
		return fmt.Errorf("usage: iosnapctl -image FILE COMMAND [flags] (run with -h for commands)")
	}

	if cmd == "init" {
		return cmdInit(*image, cmdArgs)
	}

	dev, f, err := load(*image, *mapCache)
	if err != nil {
		return err
	}
	now := sim.Time(0)
	dirty := false
	switch cmd {
	case "write":
		dirty = true
		err = cmdWrite(f, now, cmdArgs)
	case "read":
		err = cmdRead(f, now, cmdArgs)
	case "trim":
		dirty = true
		err = cmdTrim(f, now, cmdArgs)
	case "snap-create":
		dirty = true
		err = cmdSnapCreate(f, now)
	case "snap-delete":
		dirty = true
		err = cmdSnapDelete(f, now, cmdArgs)
	case "snap-list":
		err = cmdSnapList(f)
	case "snap-read":
		err = cmdSnapRead(f, now, cmdArgs)
	case "export":
		err = cmdExport(f, now, cmdArgs) // reads only; no notes are written
	case "import":
		return cmdImport(*image, dev, f, now, cmdArgs) // saves (or preserves) its own state
	case "replicate":
		err = cmdReplicate(f, now, cmdArgs) // source is read-only; dst saves itself
	case "verify":
		err = cmdVerify(*image, f, now, cmdArgs)
	case "stats":
		err = cmdStats(f)
	case "check":
		err = cmdCheck(f)
	case "health":
		err = cmdHealth(f)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		return err
	}
	if dirty {
		return save(*image, dev, f, now)
	}
	return nil
}

func cmdInit(image string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	megabytes := fs.Int("megabytes", 64, "raw device size in MiB")
	sector := fs.Int("sector", 4096, "sector size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nc, err := nand.MiBSegments(*megabytes, *sector)
	if err != nil {
		return err
	}
	f, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		return err
	}
	if err := writeImage(image, f.Device()); err != nil {
		return err
	}
	fmt.Printf("initialized %s: %d MiB raw, %d sectors x %d B usable\n",
		image, *megabytes, f.Sectors(), f.SectorSize())
	return nil
}

func load(image string, mapCachePages int) (*nand.Device, *iosnap.FTL, error) {
	rd, err := fsys.Open(image)
	if err != nil {
		return nil, nil, err
	}
	defer rd.Close()
	dev, err := nand.LoadImage(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s: %w", image, err)
	}
	cfg := iosnap.DefaultConfig(dev.Config())
	cfg.MapCachePages = mapCachePages
	f, _, err := iosnap.Recover(cfg, dev, nil, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("recovering device state: %w", err)
	}
	return dev, f, nil
}

func save(image string, dev *nand.Device, f *iosnap.FTL, now sim.Time) error {
	// Close drains background work and writes a checkpoint, so the next
	// invocation mounts tail-bounded instead of full-scanning the log.
	if _, err := f.Close(now); err != nil {
		return fmt.Errorf("checkpointing before save: %w", err)
	}
	return writeImage(image, dev)
}

// writeImage streams the device image to disk through an atomic, fsynced
// temp-file + rename, so a crash at any point leaves either the previous
// image or the complete new one.
func writeImage(image string, dev *nand.Device) error {
	a, err := vfs.NewAtomicFile(fsys, image)
	if err != nil {
		return err
	}
	if err := dev.SaveImage(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

func lbaCountFlags(fs *flag.FlagSet) (lba *int64, count *int64) {
	lba = fs.Int64("lba", 0, "logical block address")
	count = fs.Int64("count", 1, "number of sectors")
	return
}

// sectorCount checks a -count against the device's sectors before a
// buffer is sized from it, so a bad count is a usage error rather than a
// panic or an allocation as large as the flag.
func sectorCount(count, sectors int64) (int, error) {
	if count < 1 || count > sectors {
		return 0, fmt.Errorf("usage: -count %d is outside [1, %d]", count, sectors)
	}
	return int(count), nil
}

// writePayload builds a write's payload from its flags: -text, zero-padded
// to -count sectors of ss bytes. Text that does not fit is a usage error
// naming -count, not a payload silently cut to the first sectors.
func writePayload(text string, count, sectors int64, ss int) ([]byte, error) {
	n, err := sectorCount(count, sectors)
	if err != nil {
		return nil, err
	}
	if room := n * ss; len(text) > room {
		return nil, fmt.Errorf("usage: -text of %d bytes does not fit -count %d (%d B); use -count %d",
			len(text), count, room, (len(text)+ss-1)/ss)
	}
	buf := make([]byte, n*ss)
	copy(buf, text)
	return buf, nil
}

func cmdWrite(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	text := fs.String("text", "", "payload text (zero-padded per sector)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	buf, err := writePayload(*text, *count, f.Sectors(), f.SectorSize())
	if err != nil {
		return err
	}
	done, err := f.Write(now, *lba, buf)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d sector(s) at LBA %d in %v (virtual)\n", *count, *lba, done.Sub(now))
	return nil
}

func printSectors(buf []byte, ss int, lba int64) {
	for i := 0; i*ss < len(buf); i++ {
		sector := buf[i*ss : (i+1)*ss]
		end := len(sector)
		for end > 0 && sector[end-1] == 0 {
			end--
		}
		fmt.Printf("LBA %d: %q\n", lba+int64(i), string(sector[:end]))
	}
}

func cmdRead(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("read", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sectorCount(*count, f.Sectors())
	if err != nil {
		return err
	}
	buf := make([]byte, n*f.SectorSize())
	if _, err := f.Read(now, *lba, buf); err != nil {
		return err
	}
	printSectors(buf, f.SectorSize(), *lba)
	return nil
}

func cmdTrim(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("trim", flag.ContinueOnError)
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := f.Trim(now, *lba, *count); err != nil {
		return err
	}
	fmt.Printf("trimmed %d sector(s) at LBA %d\n", *count, *lba)
	return nil
}

func cmdSnapCreate(f *iosnap.FTL, now sim.Time) error {
	snap, done, err := f.CreateSnapshot(now)
	if err != nil {
		return err
	}
	fmt.Printf("created snapshot %d (epoch %d) in %v (virtual)\n", snap.ID, snap.Epoch, done.Sub(now))
	return nil
}

func cmdSnapDelete(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("snap-delete", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "snapshot id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := f.DeleteSnapshot(now, iosnap.SnapshotID(*id)); err != nil {
		return err
	}
	fmt.Printf("deleted snapshot %d (blocks reclaim in background)\n", *id)
	return nil
}

func cmdSnapList(f *iosnap.FTL) error {
	tree := f.Tree()
	if tree.Len() == 0 {
		fmt.Println("no snapshots")
		return nil
	}
	fmt.Printf("%-6s %-7s %-8s %s\n", "ID", "EPOCH", "STATE", "PARENT")
	for _, id := range tree.IDs() {
		s, _ := tree.Lookup(id)
		state := "live"
		if s.Deleted {
			state = "deleted"
		}
		parent := "-"
		if s.Parent != nil {
			parent = fmt.Sprintf("%d", s.Parent.ID)
		}
		fmt.Printf("%-6d %-7d %-8s %s\n", s.ID, s.Epoch, state, parent)
	}
	return nil
}

func cmdSnapRead(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("snap-read", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "snapshot id")
	lba, count := lbaCountFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sectorCount(*count, f.Sectors())
	if err != nil {
		return err
	}
	view, done, err := f.ActivateSync(now, iosnap.SnapshotID(*id), ratelimit.WorkSleep{}, false)
	if err != nil {
		return err
	}
	fmt.Printf("activated snapshot %d in %v (virtual): %d translations, %d B map\n",
		*id, done.Sub(now), view.MappedSectors(), view.MapMemory())
	buf := make([]byte, n*f.SectorSize())
	if _, err := view.Read(done, *lba, buf); err != nil {
		return err
	}
	printSectors(buf, f.SectorSize(), *lba)
	_, err = view.Deactivate(done)
	return err
}

// --- snapshot replication (internal/xport transport) -----------------------

// genPath / journalPath are the replica image's sidecars: the committed
// generation manifest and the in-flight receive journal.
func genPath(image string) string     { return image + ".gen" }
func journalPath(image string) string { return image + ".journal" }

func readManifest(path string) (*xport.Manifest, error) {
	b, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	m, err := xport.DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// loadSidecars reads the replica's committed generation manifest and
// in-flight journal, distinguishing "never existed" (a fresh replica —
// proceed bare) from "exists but unreadable/corrupt" (fail loudly: treating
// a damaged generation as a bare destination would silently re-clear and
// re-apply a full image over a replica whose true state is unknown).
func loadSidecars(image string) (gen *xport.Manifest, journal []byte, err error) {
	g, gerr := readManifest(genPath(image))
	switch {
	case gerr == nil:
		gen = g
	case vfs.IsNotExist(gerr):
		// Fresh replica: no committed generation yet.
	default:
		return nil, nil, fmt.Errorf("generation sidecar: %w", gerr)
	}
	jb, jerr := vfs.ReadFile(fsys, journalPath(image))
	switch {
	case jerr == nil:
		journal = jb
	case vfs.IsNotExist(jerr):
		// No interrupted transfer to resume.
	default:
		return nil, nil, fmt.Errorf("journal sidecar: %w", jerr)
	}
	return gen, journal, nil
}

func writeFileAtomic(path string, b []byte) error {
	return vfs.WriteFileAtomic(fsys, path, b)
}

func cmdExport(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "snapshot id to export")
	base := fs.Uint64("base", 0, "base snapshot id (ship only the delta; 0 = full image)")
	baseGen := fs.String("basegen", "", "receiver's committed generation manifest (required with -base; alone it just enables dedup)")
	out := fs.String("out", "", "output stream file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("export: -out is required")
	}
	opt := iosnap.ExportOpts{Snapshot: iosnap.SnapshotID(*id), Base: iosnap.SnapshotID(*base)}
	if *baseGen != "" {
		g, err := readManifest(*baseGen)
		if err != nil {
			return err
		}
		opt.BaseManifestID = g.ID()
		opt.Have = func(lba, hash uint64) bool {
			e, ok := g.Find(lba)
			return ok && e.Hash == hash
		}
	} else if *base != 0 {
		return fmt.Errorf("export: -base requires -basegen (the receiver's generation manifest)")
	}
	m, stream, done, err := f.ExportSync(now, opt)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(*out, stream); err != nil {
		return err
	}
	st := f.Stats()
	kind := "full"
	if m.IsDelta() {
		kind = fmt.Sprintf("delta vs snapshot %d", m.BaseSnapID)
	}
	fmt.Printf("exported snapshot %d (%s): %d sectors, %d chunks shipped, %d deduped, %d deletes, %d B stream in %v (virtual)\n",
		*id, kind, len(m.Writes), st.ExportChunks, st.ExportDedupHits, len(m.Deletes), len(stream), done.Sub(now))
	return nil
}

func cmdImport(image string, dev *nand.Device, f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	in := fs.String("in", "", "transfer stream file (required)")
	abortAfter := fs.Int("abort-after", 0, "abort after N chunk writes (simulated crash; journal survives)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("import: -in is required")
	}
	stream, err := vfs.ReadFile(fsys, *in)
	if err != nil {
		return err
	}
	opt := iosnap.ReceiveOpts{
		AbortAfter: *abortAfter,
		// A journal that cannot be persisted aborts the receive: resuming
		// later would otherwise trust durability points that never hit disk.
		Persist: func(j []byte) error { return writeFileAtomic(journalPath(image), j) },
	}
	opt.Base, opt.Journal, err = loadSidecars(image)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	rec, done, rerr := iosnap.ReceiveInto(f, now, stream, opt)
	if rec != nil {
		// Writes may have landed (even on the abort path) — persist the
		// device so a later import resumes against real state.
		if serr := save(image, dev, f, done); serr != nil {
			return serr
		}
	}
	if rerr != nil {
		return rerr
	}
	if err := writeFileAtomic(genPath(image), rec.Manifest.Encode()); err != nil {
		return err
	}
	fsys.Remove(journalPath(image))
	fmt.Printf("imported %s: applied %d, skipped %d (already durable), deduped %d, resumed=%v\n",
		*in, rec.Applied, rec.Skipped, rec.Deduped, rec.Resumed)
	return nil
}

func cmdReplicate(f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("replicate", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "snapshot id to replicate")
	base := fs.Uint64("base", 0, "base snapshot id (incremental; must be the previously replicated snapshot)")
	dst := fs.String("dst", "", "destination image path (required)")
	attempts := fs.Int("attempts", 3, "receive/verify attempts before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dst == "" {
		return fmt.Errorf("replicate: -dst is required")
	}
	dstDev, dstF, err := load(*dst, 0)
	if err != nil {
		return err
	}
	r := &iosnap.Replicator{
		Src:     f,
		Dst:     dstF,
		Policy:  retry.Policy{MaxAttempts: *attempts, Backoff: 100 * sim.Microsecond},
		Persist: func(j []byte) error { return writeFileAtomic(journalPath(*dst), j) },
	}
	gen, journal, err := loadSidecars(*dst)
	if err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	r.Restore(gen, journal)
	m, done, rerr := r.Replicate(now, iosnap.SnapshotID(*id), iosnap.SnapshotID(*base))
	// Persist the destination either way: on failure the journal sidecar
	// plus the partially-applied image is exactly what a resume needs.
	if serr := save(*dst, dstDev, dstF, done); serr != nil {
		return serr
	}
	if rerr != nil {
		return rerr
	}
	if err := writeFileAtomic(genPath(*dst), m.Encode()); err != nil {
		return err
	}
	fsys.Remove(journalPath(*dst))
	st := f.Stats()
	kind := "full"
	if m.IsDelta() {
		kind = "delta"
	}
	fmt.Printf("replicated snapshot %d to %s (%s): %d sectors, %d chunks shipped, %d deduped, retries=%d resumes=%d mismatches=%d\n",
		*id, *dst, kind, len(m.Writes), st.ExportChunks, st.ExportDedupHits,
		st.ImportRetries, st.ImportResumes, st.VerifyMismatches)
	return nil
}

func cmdVerify(image string, f *iosnap.FTL, now sim.Time, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	gen := fs.String("gen", "", "generation manifest to verify against (default IMAGE.gen)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *gen
	if path == "" {
		path = genPath(image)
	}
	m, err := readManifest(path)
	if err != nil {
		return err
	}
	mism, _, err := iosnap.VerifyReplica(f, now, m)
	if err != nil {
		return err
	}
	if len(mism) > 0 {
		return fmt.Errorf("verify: %d of %d sectors do not match the manifest (first bad LBA %d)",
			len(mism), len(m.Writes)+len(m.Deletes), mism[0])
	}
	fmt.Printf("replica verifies clean against %s: %d sectors, %d deletes, generation %#x\n",
		path, len(m.Writes), len(m.Deletes), m.ID())
	return nil
}

func cmdStats(f *iosnap.FTL) error {
	st := f.Stats()
	fmt.Printf("sectors:            %d x %d B\n", f.Sectors(), f.SectorSize())
	fmt.Printf("mapped sectors:     %d\n", f.MappedSectors())
	fmt.Printf("free segments:      %d\n", f.FreeSegments())
	fmt.Printf("snapshots (live):   %d\n", f.Tree().Live())
	fmt.Printf("snapshots (total):  %d\n", f.Tree().Len())
	fmt.Printf("active epoch:       %d\n", f.ActiveEpoch())
	fmt.Printf("map memory:         %d B (%d B resident)\n", st.MapMemory, st.MapMemoryResident)
	fmt.Printf("map cache:          %d hits, %d misses, %d evictions, %d pages flushed\n",
		st.MapCacheHits, st.MapCacheMisses, st.MapCacheEvictions, st.MapPagesFlushed)
	fmt.Printf("validity memory:    %d B\n", st.ValidityMemory)
	fmt.Printf("gc errors:          %d\n", st.GCErrors)
	if st.GCLastErr != "" {
		fmt.Printf("gc last error:      %s\n", st.GCLastErr)
	}
	fmt.Printf("gc victim selects:  %d (%d served from fresh caches)\n", st.GCVictimSelects, st.GCCacheHits)
	fmt.Printf("gc cache rebuilds:  %d (%d pages re-merged)\n", st.GCCacheRebuilds, st.GCCacheRebuildPages)
	fmt.Printf("torn pages skipped: %d\n", st.TornPagesSkipped)
	mode := "full-scan"
	if st.RecoveryTailBounded {
		mode = "tail-bounded"
	}
	fmt.Printf("recovery:           %s (%d segments, %d header pages, %d fallbacks)\n",
		mode, st.RecoverySegsScanned, st.RecoveryHeaderPages, st.RecoveryFallbacks)
	fmt.Printf("checkpoints:        %d committed (%d chunks, %d errors)\n",
		st.Checkpoints, st.CheckpointChunks, st.CheckpointErrors)
	fmt.Printf("batched data path:  %d leaf descents, %d pages in %d NAND calls\n",
		st.BatchDescents, st.BatchPages, st.BatchNandCalls)
	fmt.Printf("replication:        %d chunks shipped, %d deduped, %d retries, %d resumes, %d verify mismatches\n",
		st.ExportChunks, st.ExportDedupHits, st.ImportRetries, st.ImportResumes, st.VerifyMismatches)
	fmt.Printf("device wear (min/max/total erases): %v\n", formatWear(f))
	return nil
}

func cmdCheck(f *iosnap.FTL) error {
	if err := f.CheckInvariants(); err != nil {
		return err
	}
	fmt.Printf("invariants OK: %d mapped sectors, %d live snapshots, active epoch %d\n",
		f.MappedSectors(), f.Tree().Live(), f.ActiveEpoch())
	return nil
}

// cmdHealth reports media health: segment health states (persisted in the
// image, so retirements survive reloads), wear, and whether the device is
// degraded to read-only for lack of rescuable space.
func cmdHealth(f *iosnap.FTL) error {
	dev := f.Device()
	suspect, retired := dev.HealthCounts()
	st := f.Stats()
	fmt.Printf("segments:           %d total, %d free, %d suspect, %d retired\n",
		dev.Config().Segments, f.FreeSegments(), suspect, retired)
	fmt.Printf("device wear (min/max/total erases): %v\n", formatWear(f))
	fmt.Printf("degraded:           %v\n", st.Degraded)
	fmt.Printf("retries:            %d\n", st.Retries)
	fmt.Printf("media failures:     %d\n", st.MediaFailures)
	fmt.Printf("rescued pages:      %d\n", st.RescuedPages)
	fmt.Printf("out-of-space writes: %d\n", st.OutOfSpaceWrites)
	fmt.Printf("scrub passes:       %d (%d segments scanned, %d rescues)\n",
		st.ScrubPasses, st.ScrubSegments, st.ScrubRescues)
	bad := false
	for seg := 0; seg < dev.Config().Segments; seg++ {
		if h := dev.SegmentHealth(seg); h != nand.Healthy {
			if !bad {
				fmt.Printf("%-8s %-8s %s\n", "SEGMENT", "HEALTH", "ERASES")
				bad = true
			}
			fmt.Printf("%-8d %-8s %d\n", seg, h, dev.EraseCount(seg))
		}
	}
	if !bad {
		fmt.Println("all segments healthy")
	}
	return nil
}

// demoConfig is the faultdemo device: small enough that a few hundred
// operations exercise cleaning, in-memory data so torn/corrupt pages are
// observable, geometry matching the package torture tests.
func demoConfig() iosnap.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 16
	nc.Segments = 32
	nc.Channels = 2
	nc.StoreData = true
	cfg := iosnap.DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.BitmapPageBits = 64
	return cfg
}

func cmdFaultDemo(args []string) error {
	fs := flag.NewFlagSet("faultdemo", flag.ContinueOnError)
	planName := fs.String("plan", "gc-copy", "fault plan: gc-copy | torn-note | crash-scan | random | transient | wear-out | none")
	seed := fs.Uint64("seed", 1, "workload RNG seed")
	steps := fs.Int("steps", 600, "operations to run")
	prob := fs.Float64("prob", 0.02, "per-operation fault probability (random/transient plans)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *steps < 1 {
		return fmt.Errorf("faultdemo: -steps %d must be at least 1", *steps)
	}
	if !(*prob > 0 && *prob <= 1) {
		return fmt.Errorf("faultdemo: -prob %v must be in (0, 1]", *prob)
	}
	cfg := demoConfig()
	opt := iosnap.TortureOptions{Seed: *seed, Steps: *steps}
	switch *planName {
	case "gc-copy":
		opt.Plan = faultinject.GCCopyError(5)
	case "torn-note":
		opt.Plan = faultinject.TornNote(header.TypeSnapCreate, 2)
	case "crash-scan":
		opt.Plan = faultinject.CrashAtScan(2)
		// Throttle activations so the scan stays in flight long enough to hit.
		opt.ActivationLimit = ratelimit.WorkSleep{Work: 10 * sim.Microsecond, Sleep: 5 * sim.Millisecond}
	case "random":
		opt.Plan = faultinject.RandomFaults(*seed, *prob)
	case "transient":
		// Retryable faults only: the run must complete with zero surfaced
		// errors — the retry policy absorbs every episode.
		opt.Plan = faultinject.RandomTransients(*seed, *prob, 2)
	case "wear-out":
		// The media-failure acceptance scenario: a low erase budget (erases
		// past it fail with ErrWornOut, retiring segments after rescue), 1%
		// transient read/program faults, an armed scrubber, and three
		// crash/recover cycles with a fresh fault plan each cycle.
		cfg.Nand.WearOutThreshold = 6
		cfg.Nand.WearOutProb = 0.3
		cfg.Nand.WearSeed = *seed
		cfg.ScrubInterval = 2 * sim.Millisecond
		cfg.ScrubLimit = ratelimit.WorkSleep{Work: 50 * sim.Microsecond, Sleep: 2 * sim.Millisecond}
		wearPlan := func(cycle int) *faultinject.Plan {
			return faultinject.NewPlan(*seed+uint64(cycle)*7919,
				faultinject.Rule{Name: "transient-read", Kind: faultinject.KindTransient,
					Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1},
				faultinject.Rule{Name: "transient-program", Kind: faultinject.KindTransient,
					Op: nand.OpProgram, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1},
				faultinject.Rule{Name: "crash", Kind: faultinject.KindCrash,
					Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 120},
			)
		}
		opt.Plan = wearPlan(0)
		opt.Replan = func(cycle int) *faultinject.Plan {
			if cycle >= 3 {
				return nil
			}
			return wearPlan(cycle)
		}
	case "none":
	default:
		return fmt.Errorf("unknown fault plan %q (want gc-copy, torn-note, crash-scan, random, transient, wear-out, or none)", *planName)
	}
	rep, err := iosnap.Torture(cfg, opt)
	if err != nil {
		return fmt.Errorf("torture run found a real bug: %w", err)
	}
	fmt.Printf("plan=%s seed=%d %s\n", *planName, *seed, rep)
	st := rep.FinalStats
	fmt.Printf("media: retries=%d failures=%d suspect=%d retired=%d rescued=%d scrubPasses=%d degraded=%v\n",
		st.Retries, st.MediaFailures, st.SegmentsSuspect, st.SegmentsRetired,
		st.RescuedPages, st.ScrubPasses, st.Degraded)
	if len(rep.Fired) == 0 {
		fmt.Println("no faults fired (try more -steps or a different -seed)")
		return nil
	}
	for _, fi := range rep.Fired {
		fmt.Printf("fired %-15s op=%-8s page=%d (match #%d)\n", fi.Rule, fi.Op, fi.Addr, fi.Count)
	}
	return nil
}

func formatWear(f *iosnap.FTL) string {
	minE, maxE, total := f.Device().WearStats()
	return fmt.Sprintf("%d / %d / %d", minE, maxE, total)
}
