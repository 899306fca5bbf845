package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/vfs"
)

// The restart phase repeats each timed step and reports the median: an
// encode takes tens of milliseconds and a mount a couple of hundred, short
// enough for one burst from a neighbour to double either.
const (
	mountPasses = 5
	savePasses  = 2 // before each mount
)

// restartStats is phase 4: what a clean shutdown and the next start cost.
type restartStats struct {
	closeS     float64   // Service.Close: the final checkpoint of every shard
	ckptChunks int64     // chunk pages those checkpoints programmed
	saveS      []float64 // SaveImage of every shard into a counting discard writer
	imageBytes int64
	liveBytes  int64     // mapped sectors x sector size when serving stopped
	fileS      float64   // the same images into real files; fsynced as the daemon does when sync is set
	loadS      []float64 // LoadImage of every shard from those files
	recoverS   []float64 // ConfigForDevices + NewServiceFrom
	recovered  shard.Summary
}

func (rs *restartStats) persistS() float64 { return rs.closeS + median(rs.saveS) }

func (rs *restartStats) mountS() float64 {
	sum := make([]float64, len(rs.loadS))
	for i := range sum {
		sum[i] = rs.loadS[i] + rs.recoverS[i]
	}
	return median(sum)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// restart shuts the stack down as the daemon does, persists every shard,
// mounts the images back and reads every sector of the working set and of
// every snapshot still live through the remounted service. Flush policy: the
// timed encodes go to a discard writer, so persist_s is the cost the code
// controls; the real files are written once, untimed unless sync is set, and
// fsync never counts towards persist_s.
func (r *loadRun) restart(dir string, sync bool) (restartStats, error) {
	var rs restartStats
	st := r.st
	models := r.hangUp()
	if err := st.stopServing(); err != nil {
		return rs, err
	}
	before := st.svc.Summary()
	rs.liveBytes = before.MappedSectors * int64(r.w.sectorSize)

	t0 := time.Now()
	if err := st.svc.Close(); err != nil {
		return rs, fmt.Errorf("checkpointing: %w", err)
	}
	rs.closeS = time.Since(t0).Seconds()
	after := st.svc.Summary()
	for i := range after.PerShard {
		rs.ckptChunks += after.PerShard[i].CheckpointChunks - before.PerShard[i].CheckpointChunks
	}

	// The image files go when the phase ends, before the kernel starts
	// writing a quarter of a gigabyte back underneath the next one.
	tmp, err := os.MkdirTemp(dir, "images-")
	if err != nil {
		return rs, err
	}
	defer os.RemoveAll(tmp)
	paths := make([]string, len(st.devs))
	t0 = time.Now()
	for i, d := range st.devs {
		paths[i] = filepath.Join(tmp, fmt.Sprintf("dev.img.shard%d", i))
		if err := writeImage(paths[i], d, sync); err != nil {
			return rs, fmt.Errorf("saving shard %d: %w", i, err)
		}
	}
	rs.fileS = time.Since(t0).Seconds()

	// Encodes and mounts take turns, so that each metric's passes spread over
	// the whole phase instead of sitting in one quarter second of it.
	r.st = nil
	var svc *shard.Service
	for p := 0; p < mountPasses; p++ {
		for q := 0; q < savePasses; q++ {
			var cw countingWriter
			t0 := time.Now()
			for i, d := range st.devs {
				if err := d.SaveImage(&cw); err != nil {
					return rs, fmt.Errorf("saving shard %d: %w", i, err)
				}
			}
			rs.saveS = append(rs.saveS, time.Since(t0).Seconds())
			rs.imageBytes = cw.n
		}
		if svc != nil {
			if err := svc.Close(); err != nil {
				return rs, err
			}
			svc = nil
		}
		runtime.GC() // every mount starts from the same heap: the old devices and nothing else
		t0 := time.Now()
		devs, err := loadImages(paths)
		if err != nil {
			return rs, err
		}
		t1 := time.Now()
		if svc, err = mountService(r.w, devs); err != nil {
			return rs, fmt.Errorf("remounting: %w", err)
		}
		rs.loadS = append(rs.loadS, t1.Sub(t0).Seconds())
		rs.recoverS = append(rs.recoverS, time.Since(t1).Seconds())
	}
	rs.recovered = svc.Summary()
	for _, m := range models {
		r.verifyMounted(svc, m)
	}
	return rs, svc.Close()
}

// writeImage is the daemon's writeImage when sync is set (fsynced temp file,
// rename, parent-directory fsync) and a plain buffered file otherwise: the
// mounts below read the page cache either way, and an fsync on the sandbox's
// disk takes anything from 0.2 s to 8 s.
func writeImage(path string, dev *nand.Device, sync bool) error {
	if sync {
		a, err := vfs.NewAtomicFile(vfs.OS{}, path)
		if err != nil {
			return err
		}
		if err := dev.SaveImage(a); err != nil {
			a.Abort()
			return err
		}
		return a.Commit()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dev.SaveImage(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadImages(paths []string) ([]*nand.Device, error) {
	devs := make([]*nand.Device, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		d, err := nand.LoadImage(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", p, err)
		}
		devs[i] = d
	}
	return devs, nil
}

// verifyMounted reads one connection's whole share, live and in every
// snapshot it still holds, through the remounted service.
func (r *loadRun) verifyMounted(svc *shard.Service, m *model) {
	n, ss := r.g.fillSectors, r.w.sectorSize
	buf := make([]byte, n*ss)
	sweep := func(what string, read func(lba int64, buf []byte) error, ver []uint32) {
		for u := int64(0); u < m.lay.units(n); u++ {
			lba := m.lay.lba(m.conn, u, n)
			r.tally.attempted++
			if err := read(lba, buf); err != nil {
				r.tally.fail("remount: %s read at lba %d: %v", what, lba, err)
				continue
			}
			m.check(buf, lba, n, ss, ver, &r.tally)
		}
	}
	sweep("live", svc.Read, m.ver)
	for _, s := range m.snaps {
		r.tally.attempted++
		view, err := svc.ActivateSync(iosnap.SnapshotID(s.id), false)
		if err != nil {
			r.tally.fail("remount: activating snapshot %d: %v", s.id, err)
			continue
		}
		sweep(fmt.Sprintf("snapshot %d", s.id), view.Read, s.ver)
		if err := view.Deactivate(); err != nil {
			r.tally.fail("remount: deactivating snapshot %d: %v", s.id, err)
		}
	}
}
