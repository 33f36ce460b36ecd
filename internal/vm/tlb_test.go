package vm

import (
	"strings"
	"testing"

	"treesls/internal/mem"
)

// TestUnmapFailsClosed unmaps a region whose pages the table has cached: the
// next access to the range must fault and fail with the segfault error, as
// it would had the page never been mapped, not reach the unmapped page
// through a stale translation.
func TestUnmapFailsClosed(t *testing.T) {
	as, _, lane, _ := newTestAS(8)
	const va = 0x10000 + 3*mem.PageSize
	if err := as.WriteU64(lane, va, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := as.ReadU64(lane, va); err != nil || v != 42 {
		t.Fatalf("ReadU64 before Unmap = %d, %v", v, err)
	}
	if !as.Space.Unmap(0x10000) {
		t.Fatal("Unmap found no region")
	}
	v, err := as.ReadU64(lane, va)
	if err == nil || !strings.Contains(err.Error(), "segfault") {
		t.Fatalf("ReadU64 after Unmap = %d, %v; want the segfault error", v, err)
	}
	if err := as.WriteU64(lane, va, 7); err == nil || !strings.Contains(err.Error(), "segfault") {
		t.Fatalf("WriteU64 after Unmap: %v; want the segfault error", err)
	}
}

// TestTableSizedByHighestPage checks the table shape: a region's table
// grows to the highest page touched, doubling and capped at the region's
// size, and InvalidateAll empties it but keeps its storage for the table
// rebuilt after it.
func TestTableSizedByHighestPage(t *testing.T) {
	const pages = 64
	as, _, lane, _ := newTestAS(pages)
	touch := func(page uint64) {
		t.Helper()
		if err := as.WriteU64(lane, 0x10000+page*mem.PageSize, page); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct{ page, want uint64 }{
		{0, 1}, {5, 6}, {6, 12}, {3, 12}, {40, 41}, {41, pages}, {pages - 1, pages},
	} {
		touch(step.page)
		if len(as.tables) != 1 || uint64(len(as.tables[0].ents)) != step.want {
			t.Fatalf("after touching page %d: %d tables, %d entries; want 1 table of %d", step.page, len(as.tables), len(as.tables[0].ents), step.want)
		}
	}

	as.InvalidateAll()
	if len(as.tables) != 0 {
		t.Fatalf("InvalidateAll left %d tables", len(as.tables))
	}
	faults := as.Stats.MapFaults
	if n := testing.AllocsPerRun(1, func() { touch(3) }); n != 0 {
		t.Errorf("rebuilding the table after InvalidateAll: %v allocations, want 0", n)
	}
	if as.Stats.MapFaults != faults+1 {
		t.Errorf("the first access after InvalidateAll took %d map faults, want 1", as.Stats.MapFaults-faults)
	}
	for j, e := range as.tables[0].ents {
		if (e.slot != nil) != (j == 3) {
			t.Errorf("rebuilt table: entry %d mapped %v", j, e.slot != nil)
		}
	}
	for page := uint64(0); page < pages; page++ {
		if v, err := as.ReadU64(lane, 0x10000+page*mem.PageSize); err != nil || (v != page && v != 0) {
			t.Fatalf("page %d reads %d, %v", page, v, err)
		}
	}
}

// TestWordAccessAllocatesNothing holds a warm ReadU64 and WriteU64 to zero
// allocations.
func TestWordAccessAllocatesNothing(t *testing.T) {
	as, _, lane, _ := newTestAS(4)
	const va = 0x10000 + mem.PageSize + 16
	if err := as.WriteU64(lane, va, 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, _ := as.ReadU64(lane, va)
		_ = as.WriteU64(lane, va, v+1)
	}); n != 0 {
		t.Errorf("warm ReadU64 and WriteU64: %v allocations, want 0", n)
	}
}

// BenchmarkWordRead times a warm ReadU64: every page of the region is mapped
// and holds bytes of its own, so each read hits the cached translation and
// frame.
func BenchmarkWordRead(b *testing.B) {
	const pages = 64
	as, _, lane, _ := newTestAS(pages)
	for page := uint64(0); page < pages; page++ {
		if err := as.WriteU64(lane, 0x10000+page*mem.PageSize, page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := uint64(i) % pages
		if _, err := as.ReadU64(lane, 0x10000+page*mem.PageSize+uint64(i*8)%mem.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}
