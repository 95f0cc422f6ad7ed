package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/storefs"
)

// frame wraps an arbitrary payload in a frame whose checksum verifies.
func frame(payload string) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE([]byte(payload)))
	copy(buf[headerSize:], payload)
	return buf
}

// sameScan compares two scans' records and offsets; an empty scan is nil from
// one reader and zero-length from the other.
func sameScan(recs, wantRecs []record, ends, wantEnds []int64) bool {
	if len(recs) == 0 && len(wantRecs) == 0 && len(ends) == 0 && len(wantEnds) == 0 {
		return true
	}
	return reflect.DeepEqual(recs, wantRecs) && reflect.DeepEqual(ends, wantEnds)
}

// FuzzScanWAL feeds the log framer bytes a crash or a disk could hand it. For
// any file the scan must not panic or fail, its offsets must be strictly
// increasing and inside the file, the prefix it calls good must scan again to
// the same records with nothing torn, and it must agree — records, offsets,
// torn — with the frame-at-a-time reader it replaced.
func FuzzScanWAL(f *testing.F) {
	var log []byte
	for i, rec := range []record{
		{Op: opAddPlan, ID: "Q1", Text: "a \"quoted\" text\n"},
		{Op: opAddPlanBatch, Batch: []batchItem{{ID: "Q2", Text: "x"}, {ID: "Q3", Text: "y"}}},
		{Op: opRemovePlan, ID: "Q1"},
	} {
		rec.Seq = uint64(i + 1)
		buf, err := encodeRecord(&rec)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, buf...)
	}
	f.Add([]byte{})
	f.Add(log)
	// torntail_test.go's sweeps: every truncation offset, one bit per byte.
	for cut := 1; cut < len(log); cut++ {
		f.Add(log[:cut])
	}
	for i := range log {
		flipped := append([]byte(nil), log...)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}
	// Frames that verify and hold something other than a record.
	for _, payload := range []string{"null", "{}", "not json", `{"seq":"one"}`} {
		f.Add(append(append([]byte(nil), log...), frame(payload)...))
		f.Add(append(frame(payload), log...))
	}
	// Lengths that lie: beyond the limit, and within it but beyond the file.
	for _, length := range []uint32{maxRecordBytes + 1, maxRecordBytes, 1 << 10, 1, 0} {
		header := make([]byte, headerSize)
		binary.LittleEndian.PutUint32(header[0:4], length)
		f.Add(append(append([]byte(nil), log...), header...))
	}

	parallel := core.New(core.WithWorkers(3)).Parallel
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walName)
		scan := func(data []byte) ([]record, []int64, bool) {
			t.Helper()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, ends, torn, err := scanWAL(storefs.OS{}, path, parallel)
			if err != nil {
				t.Fatalf("scanWAL: %v", err)
			}
			return recs, ends, torn
		}
		recs, ends, torn := scan(data)
		if len(recs) != len(ends) {
			t.Fatalf("%d records, %d offsets", len(recs), len(ends))
		}
		last := int64(0)
		for i, end := range ends {
			if end <= last || end > int64(len(data)) {
				t.Fatalf("offset %d is %d after %d in a %d-byte file", i, end, last, len(data))
			}
			last = end
		}
		if !torn && goodLength(ends) != int64(len(data)) {
			t.Fatalf("nothing torn, yet the good prefix is %d of %d bytes", goodLength(ends), len(data))
		}

		wantRecs, wantEnds, wantTorn, err := scanWALSerial(storefs.OS{}, path)
		if err != nil {
			t.Fatalf("scanWALSerial: %v", err)
		}
		if !sameScan(recs, wantRecs, ends, wantEnds) || torn != wantTorn {
			t.Fatalf("scanWAL = %d records, ends %v, torn %v; the serial reader %d records, ends %v, torn %v",
				len(recs), ends, torn, len(wantRecs), wantEnds, wantTorn)
		}

		again, againEnds, againTorn := scan(data[:goodLength(ends)])
		if againTorn || !sameScan(again, recs, againEnds, ends) {
			t.Fatalf("the good prefix scans to %d records, ends %v, torn %v; the file gave %d, %v",
				len(again), againEnds, againTorn, len(recs), ends)
		}
	})
}
