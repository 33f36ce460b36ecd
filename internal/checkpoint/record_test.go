package checkpoint

import (
	"fmt"
	"reflect"
	"testing"

	"treesls/internal/caps"
	"treesls/internal/mem"
)

// recordRoots are the objects the record fixtures reference, by ID.
func recordRoots() map[uint64]*caps.ORoot {
	roots := make(map[uint64]*caps.ORoot)
	for id := uint64(1); id <= 3; id++ {
		roots[id] = &caps.ORoot{ObjID: id}
	}
	return roots
}

// recordFixtures returns one snapshot of every non-PMO kind with every field
// set, distinct from its neighbours and from zero, over roots.
func recordFixtures(roots map[uint64]*caps.ORoot) []caps.Snapshot {
	return []caps.Snapshot{
		&caps.CapGroupSnap{Name: "group", Slots: []caps.BackupCapability{
			{Root: roots[1], Rights: caps.RightRead},
			{Root: roots[2], Rights: caps.RightRead | caps.RightWrite},
		}},
		&caps.ThreadSnap{
			Ctx:   caps.Context{PC: 0x400, SP: 0x7f00, R: [8]uint64{11, 12, 13, 14, 15, 16, 17, 18}},
			Sched: caps.SchedContext{Priority: 3, Affinity: -1, TimeSlice: 500},
			State: 2,
		},
		&caps.VMSpaceSnap{Regions: []caps.VMRegionSnap{
			{VABase: 0x10000, NumPages: 4, PMORoot: roots[1], PMOOffset: 2, Perm: caps.RightRead},
			{VABase: 0x20000, NumPages: 8, PMORoot: roots[3], PMOOffset: 5, Perm: caps.RightWrite},
		}},
		&caps.IPCConnSnap{ClientRoot: roots[1], ServerRoot: roots[2], Buf: []byte("request"), Seq: 42},
		&caps.NotificationSnap{Count: 2, Waiters: []*caps.ORoot{roots[2], roots[3]}},
		&caps.IRQNotificationSnap{Line: 9, Pending: 3, HandlerRoot: roots[3]},
	}
}

// recordMutations calls try once per single-field change of v, undoing
// each change after try returns: every integer is bumped, every string
// grows, every slice loses its last element, every object reference points
// at another root and at none. path names the field.
func recordMutations(v reflect.Value, path string, roots map[uint64]*caps.ORoot, try func(path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		old := v.Interface().(*caps.ORoot)
		for _, r := range []*caps.ORoot{nil, roots[1], roots[2], roots[3]} {
			if r != old {
				v.Set(reflect.ValueOf(r))
				try(fmt.Sprintf("%s = %v", path, r))
			}
		}
		v.Set(reflect.ValueOf(old))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			recordMutations(v.Field(i), path+"."+v.Type().Field(i).Name, roots, try)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			recordMutations(v.Index(i), fmt.Sprintf("%s[%d]", path, i), roots, try)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			recordMutations(v.Index(i), fmt.Sprintf("%s[%d]", path, i), roots, try)
		}
		old := v.Slice(0, v.Len())
		v.Set(old.Slice(0, v.Len()-1))
		try(path + " shortened")
		v.Set(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		try(path)
		v.SetString(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		try(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		try(path)
		v.SetUint(old)
	default:
		panic(fmt.Sprintf("%s: no mutation for %v", path, v.Kind()))
	}
}

// TestRecordDigestCoversEveryField changes each field of a snapshot of every
// non-PMO kind, one at a time, and requires recordSum to change: a field
// the shared record encoder leaves out — or one added to a snapshot type
// without it — fails here. recordSum also equals FNV-1a over the record
// bytes replication ships, since it folds those very bytes.
func TestRecordDigestCoversEveryField(t *testing.T) {
	roots := recordRoots()
	var kinds [caps.NumKinds]bool
	for _, snap := range recordFixtures(roots) {
		kinds[snap.SnapKind()] = true
		e := recEncoder{}
		encodeRecord(&e, snap)
		base := recordSum(snap)
		if want := mem.FoldFNV(mem.FNVOffset, e.buf); base != want {
			t.Errorf("%T: recordSum %#x, FNV-1a of the record %#x", snap, base, want)
		}
		n := 0
		recordMutations(reflect.ValueOf(snap).Elem(), fmt.Sprintf("%T", snap), roots, func(path string) {
			n++
			if recordSum(snap) == base {
				t.Errorf("%s: recordSum unchanged", path)
			}
		})
		if n == 0 {
			t.Errorf("%T: no field mutated", snap)
		}
	}
	for k, ok := range kinds {
		if !ok && caps.ObjectKind(k) != caps.KindPMO {
			t.Errorf("no fixture for %v", caps.ObjectKind(k))
		}
	}
}

// TestObjectRecordRoundTrip decodes the encoded record of every kind back
// into an equal snapshot: the non-PMO fixtures through encodeRecord, and the
// PMO records of a committed tree through a full replication capture.
func TestObjectRecordRoundTrip(t *testing.T) {
	roots := recordRoots()
	lookup := func(id uint64) (*caps.ORoot, error) {
		if r := roots[id]; r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("unknown object %d", id)
	}
	for _, snap := range recordFixtures(roots) {
		e := recEncoder{}
		encodeRecord(&e, snap)
		got, metas, err := decodeObjectRecord(e.buf, lookup)
		if err != nil {
			t.Fatalf("%T: %v", snap, err)
		}
		if !reflect.DeepEqual(got, snap) || metas != nil {
			t.Errorf("%T: decoded %+v (pages %v), encoded %+v", snap, got, metas, snap)
		}
	}

	h := newHarness(t, DefaultConfig(), 1)
	_, pmo, _ := h.buildProc("app", 4)
	h.writePage(t, pmo, 0, []byte("zero"))
	h.writePage(t, pmo, 2, []byte("two"))
	h.checkpoint()
	img := FullCapture(h.mgr)
	decoded := 0
	for k, rec := range img.Entries {
		if k.Kind != ReplObject {
			continue
		}
		decoded++
		got, metas, err := decodeObjectRecord(rec, func(id uint64) (*caps.ORoot, error) {
			if r := h.mgr.lookupRoot(id); r != nil {
				return r, nil
			}
			return nil, fmt.Errorf("unknown object %d", id)
		})
		if err != nil {
			t.Fatalf("object %d: %v", k.ObjID, err)
		}
		want, _ := h.mgr.lookupRoot(k.ObjID).LatestCommitted(h.mgr.committed)
		ps, isPMO := want.(*caps.PMOSnap)
		if !isPMO {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("object %d: decoded %+v, committed %+v", k.ObjID, got, want)
			}
			continue
		}
		gs := got.(*caps.PMOSnap)
		if gs.Type != ps.Type || gs.SizePages != ps.SizePages {
			t.Errorf("PMO %d: decoded type %v size %d, committed %v %d", k.ObjID, gs.Type, gs.SizePages, ps.Type, ps.SizePages)
		}
		var want2 []replPageMeta
		ps.Pages.Walk(func(idx uint64, cp *caps.CkptPage) bool {
			want2 = append(want2, replPageMeta{Idx: idx, Marker: replMarkContent})
			return true
		})
		if !reflect.DeepEqual(metas, want2) {
			t.Errorf("PMO %d: decoded pages %v, committed %v", k.ObjID, metas, want2)
		}
	}
	if counts := h.tree.Counts(); decoded != counts[caps.KindCapGroup]+counts[caps.KindThread]+counts[caps.KindVMSpace]+counts[caps.KindPMO] {
		t.Errorf("decoded %d records, tree holds %v", decoded, counts)
	}
}
