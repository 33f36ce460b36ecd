package journal

import (
	"encoding/binary"
	"testing"

	"treesls/internal/mem"
	"treesls/internal/simclock"
)

// fuzzJournal builds a journal over a small simulated NVM device.
func fuzzJournal() (*Journal, *mem.Memory, mem.PageID) {
	cfg := mem.Config{NVMFrames: 64, DRAMFrames: 16}
	memory := mem.New(cfg, simclock.DefaultCostModel())
	j := New(simclock.DefaultCostModel(), memory)
	page := mem.PageID{Kind: mem.KindNVM, Frame: mem.JournalMetaFrame}
	return j, memory, page
}

// FuzzJournalReplay feeds arbitrary bytes into the journal's NVM frame —
// flag word and record body — then runs crash recovery. The replay path
// must never panic, and its outcome must match the documented contract:
// a record is replayed iff the flag says pending AND the body checksum
// holds; any other pending frame is truncated and counted as torn.
func FuzzJournalReplay(f *testing.F) {
	// Seed 1: a well-formed committed frame (flag 0).
	f.Add(uint64(0), []byte{})
	// Seed 2: pending flag with an intact record body.
	{
		j, memory, page := fuzzJournal()
		lane := &simclock.Lane{}
		j.Begin(lane, OpBuddyAlloc, 7, 8, 9)
		body := make([]byte, recordSize)
		memory.ReadRaw(page, recordOff, body)
		f.Add(uint64(1), body)
	}
	// Seed 3: pending flag with a corrupted checksum (torn tail).
	f.Add(uint64(1), make([]byte, recordSize))
	// Seed 4: pending flag with a short body.
	f.Add(uint64(1), []byte{0xde, 0xad})
	// Seed 5: garbage flag value.
	f.Add(uint64(0xffffffffffffffff), []byte{1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, flag uint64, body []byte) {
		j, memory, page := fuzzJournal()

		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], flag)
		memory.WriteRaw(page, flagOff, fb[:])
		if len(body) > mem.PageSize-recordOff {
			body = body[:mem.PageSize-recordOff]
		}
		memory.WriteRaw(page, recordOff, body)

		j.OnCrash() // must not panic on any frame contents

		// Oracle: recompute the expected outcome from the raw frame.
		raw := make([]byte, recordSize)
		memory.ReadRaw(page, recordOff, raw)
		rec, ok := decodeRecord(raw)

		pending := j.PendingRecord()
		switch {
		case flag != 1:
			if pending != nil {
				t.Fatalf("flag %#x is not pending but replay produced record %+v", flag, pending)
			}
			if j.TornRecords != 0 {
				t.Fatalf("flag %#x counted %d torn records", flag, j.TornRecords)
			}
		case ok:
			if pending == nil {
				t.Fatalf("intact pending record not replayed (body %x)", raw)
			}
			if pending.Seq != rec.Seq || pending.Op != rec.Op || pending.Args != rec.Args {
				t.Fatalf("replayed %+v, frame holds %+v", pending, rec)
			}
		default:
			if pending != nil {
				t.Fatalf("torn record replayed: %+v", pending)
			}
			if j.TornRecords != 1 {
				t.Fatalf("torn tail counted %d times, want 1", j.TornRecords)
			}
			// Truncation must clear the durable flag so a second
			// recovery is clean.
			memory.ReadRaw(page, flagOff, fb[:])
			if binary.LittleEndian.Uint64(fb[:]) != 0 {
				t.Fatal("torn record truncated but flag still pending")
			}
		}

		// Recovery must be idempotent: a second crash replay of the
		// same frame reaches the same state.
		before := j.TornRecords
		j.OnCrash()
		if (j.PendingRecord() == nil) != (pending == nil) {
			t.Fatal("second replay disagreed about the pending record")
		}
		if flag == 1 && !ok && j.TornRecords != before {
			t.Fatal("second replay re-counted the truncated record")
		}

		// And the journal must still accept new work once the owner
		// retires the replayed record (as allocator recovery does).
		j.Retire(j.PendingRecord())
		lane := &simclock.Lane{}
		r := j.Begin(lane, OpBuddyFree, 1, 2, 3)
		j.Commit(lane, r)
		if j.PendingRecord() != nil {
			t.Fatal("journal wedged after replay: committed record still pending")
		}
	})
}

// decodeRecord parses a serialized record body (the bytes at recordOff of
// the journal frame), reporting whether its checksum held: the
// journal-replay fuzzer's oracle.
func decodeRecord(b []byte) (Record, bool) {
	if len(b) < recordSize {
		return Record{}, false
	}
	return decode(b[:recordSize])
}
