package logcore

import (
	"strings"
	"testing"

	"iosnap/internal/nand"
)

// TestValidatePagedGeometry: translation entries are 4-byte page addresses
// with 0xFFFFFFFF as the empty slot, so paged mode needs fewer than
// 2^32 − 1 pages. The TB-class geometry the repository runs (2^28 pages)
// and the largest servable one are accepted, the first unservable one is
// refused, and tree mode takes any size.
func TestValidatePagedGeometry(t *testing.T) {
	geometry := func(sector, pps, segments int) Config {
		nc := nand.DefaultConfig()
		nc.SectorSize = sector
		nc.PagesPerSegment = pps
		nc.Segments = segments
		nc.StoreData = true
		cfg := DefaultConfig(nc)
		cfg.MapCachePages = 4
		return cfg
	}
	for _, tc := range []struct {
		name                  string
		sector, pps, segments int
		ok                    bool
	}{
		{"TB-class (2^28 pages)", 4096, 1024, 1 << 18, true},
		{"2^32-2 pages", 4096, 2, 1<<31 - 1, true},
		{"2^32-1 pages", 4096, 255, 16843009, false},
		{"2^32 pages", 4096, 1024, 1 << 22, false},
		// A translation page of one slot is 25 bytes.
		{"16-byte sectors", 16, 64, 64, false},
		{"24-byte sectors", 24, 64, 64, false},
		{"25-byte sectors", 25, 64, 64, true},
	} {
		cfg := geometry(tc.sector, tc.pps, tc.segments)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s, paged: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
		cfg.MapCachePages = 0
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s, tree: Validate = %v", tc.name, err)
		}
	}
}

// TestValidateRefusesNegativeMapCache: the map is a tree (0) or a paged map
// bounded to a positive number of resident pages; there is no third layout.
func TestValidateRefusesNegativeMapCache(t *testing.T) {
	nc := nand.DefaultConfig()
	nc.StoreData = true
	cfg := DefaultConfig(nc)
	cfg.MapCachePages = -1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "MapCachePages -1") {
		t.Fatalf("Validate with MapCachePages -1 = %v, want a refusal naming it", err)
	}
}
