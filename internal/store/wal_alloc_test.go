//go:build !race

package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"optimatch/internal/core"
	"optimatch/internal/storefs"
)

// TestScanLyingLengthAllocatesNothing: a header whose length field is below
// maxRecordBytes but beyond what the file holds is a torn tail before
// anything is allocated for it — recovery used to make the 32 MiB buffer first
// and find the file short afterwards. (The race detector's allocator accounts
// differently, hence the build tag.)
func TestScanLyingLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:4], maxRecordBytes)
	writeFile(t, path, header)
	serial := core.New(core.WithWorkers(1)).Parallel

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, ends, torn, err := scanWAL(storefs.OS{}, path, serial)
	runtime.ReadMemStats(&after)
	if err != nil || !torn || len(recs) != 0 || goodLength(ends) != 0 {
		t.Fatalf("scanWAL = %d records, good length %d, torn %v, %v; want an empty torn log", len(recs), goodLength(ends), torn, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("scanning an 8-byte log allocated %d bytes, want < 64 KiB", got)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.RecoveryTruncations != 1 || st.WALBytes != 0 {
		t.Errorf("stats %+v, want the lying header truncated away", st)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != 0 {
		t.Errorf("log is %d bytes after Open (%v), want 0", info.Size(), err)
	}
}

// TestAllocBudgetEncodeRecord: an 80 KB addPlan record is framed in one
// allocation, its frame, of exactly its size; json.Marshal grew a buffer by
// doubling and copied the payload out of it into the frame.
func TestAllocBudgetEncodeRecord(t *testing.T) {
	text := strings.Repeat(oddText, 80<<10/len(oddText)+1)[:80<<10]
	rec := &record{Seq: 7, Op: opAddPlan, Text: text}
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = encodeRecord(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || cap(buf) != len(buf) {
		t.Errorf("encoding an %d-byte record = %v allocations, a %d-byte frame in %d; want 1, exact", len(text), allocs, len(buf), cap(buf))
	}
}

// TestOversizedRecordAllocatesLittle: a record over maxRecordBytes is refused
// once its length is counted, before a buffer for it is allocated.
func TestOversizedRecordAllocatesLittle(t *testing.T) {
	rec := &record{Seq: 1, Op: opAddPlan, Text: strings.Repeat("<", maxRecordBytes/6)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf, err := encodeRecord(rec)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrRecordTooLarge) || buf != nil {
		t.Fatalf("encodeRecord of %d bytes spelling six each = %d bytes, %v; want ErrRecordTooLarge", len(rec.Text), len(buf), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("refusing an oversized record allocated %d bytes, want < 64 KiB", got)
	}
}
