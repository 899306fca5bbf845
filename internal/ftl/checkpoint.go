package ftl

import (
	"fmt"

	"iosnap/internal/ckpt"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
)

// A vanilla checkpoint is one stream (header.TypeCheckpoint chunks) of two
// sections: the forward map and the segment table. Framing, chunking, the
// anchor, the pins and the background task are the log engine's
// (logcore/checkpoint.go); the validity bitmap is not serialized — recovery
// derives it from the map.

// Section kinds inside a vanilla checkpoint stream.
const (
	ckptSecMap      = 1 // forward map: count, then count × (lba, addr)
	ckptSecSegTable = 2 // segment table: count, then count × (seg, erases, prog, maxSeq)
	ckptSecGTD      = 3 // bounded-paged map: the global translation directory
)

// SerializeCheckpoint implements logcore.Policy: it captures the forward
// map and the segment table at one instant.
func (f *FTL) SerializeCheckpoint() (uint64, []logcore.ChunkJob, error) {
	ckptID := f.Seq
	mapData, gtd, err := f.EncodeMapSection()
	if err != nil {
		return 0, nil, err
	}
	mapKind := uint8(ckptSecMap)
	if gtd {
		mapKind = ckptSecGTD
	}
	var sw ckpt.Writer
	sw.U32(uint32(len(f.UsedSegs)))
	for _, s := range f.UsedSegs {
		f.EncodeSegRecord(&sw, s)
	}
	jobs, err := f.StreamJobs(header.TypeCheckpoint, ckptID, []ckpt.Section{
		{Kind: mapKind, Data: mapData},
		{Kind: ckptSecSegTable, Data: sw.B},
	})
	return ckptID, jobs, err
}

// ckptImage is a decoded checkpoint: the map in one of its two layouts (the
// full mapping list, or — gtd non-nil — the translation directory) and the
// segment table.
type ckptImage struct {
	entries  []ftlmap.Entry
	gtd      []mapcache.GTDEnt
	gtdSlots int
	table    []logcore.SegRecord
}

// decodeCheckpointSections parses a decoded stream's sections. Section
// bodies arrive from an image file: every count is proven against the bytes
// that remain before it sizes a loop or an allocation.
func decodeCheckpointSections(secs []ckpt.Section) (*ckptImage, error) {
	var (
		img              ckptImage
		sawMap, sawTable bool
		err              error
	)
	for _, s := range secs {
		switch s.Kind {
		case ckptSecMap:
			sawMap = true
			img.entries, err = logcore.DecodeMapSection(s.Data)
		case ckptSecGTD:
			sawMap = true
			img.gtd, img.gtdSlots, err = logcore.DecodeGTDSection(s.Data)
		case ckptSecSegTable:
			sawTable = true
			r := ckpt.Reader{B: s.Data}
			for i, n := 0, r.Count(uint64(r.U32()), logcore.SegRecordSize); i < n; i++ {
				img.table = append(img.table, logcore.DecodeSegRecord(&r))
			}
			if r.Err() != nil {
				err = fmt.Errorf("ftl: checkpoint segment table: %w", r.Err())
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if !sawMap || !sawTable {
		return nil, fmt.Errorf("ftl: checkpoint missing required sections")
	}
	return &img, nil
}
