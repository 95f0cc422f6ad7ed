//go:build !race

package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
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
