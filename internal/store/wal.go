package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"strconv"

	"optimatch/internal/jsonstr"
	"optimatch/internal/storefs"
)

// WAL record framing: every record is
//
//	uint32 payload length (little-endian)
//	uint32 CRC32 (IEEE) of the payload
//	payload (JSON-encoded record)
//
// Appends are a single Write followed by fsync, so a crash leaves at most
// one torn record at the tail. Recovery scans from the start and truncates
// the file at the first frame whose header or checksum does not verify;
// everything before that point is intact by CRC.
const (
	headerSize = 8
	// maxRecordBytes bounds a single record: what encodeRecord refuses to
	// write, scanFrames refuses to believe. It matches the server's upload
	// cap with JSON overhead to spare.
	maxRecordBytes = 32 << 20
)

// ErrRecordTooLarge is returned by a mutation whose journal record, once
// JSON-encoded, would exceed maxRecordBytes. Nothing is written and the store
// stays healthy: the request was too large, not the disk at fault. Callers can
// map it to 413.
var ErrRecordTooLarge = errors.New("store: record too large")

// Operation tags for WAL records and the op log.
const (
	opAddPlan      = "addPlan"
	opRemovePlan   = "removePlan"
	opAddEntry     = "addEntry"
	opRemoveEntry  = "removeEntry"
	opAddPlanBatch = "addPlanBatch"
)

// record is one durable mutation. Seq is a monotonically increasing log
// sequence number; a snapshot remembers the last sequence it absorbed, so
// replay skips any record at or below it (records are idempotent by
// sequence, which also makes the compaction swap crash-safe in both
// orders).
type record struct {
	Seq   uint64          `json:"seq"`
	Op    string          `json:"op"`
	ID    string          `json:"id,omitempty"`    // plan ID or KB entry name
	Text  string          `json:"text,omitempty"`  // raw explain text (addPlan)
	Item  json.RawMessage `json:"entry,omitempty"` // kb.Entry JSON (addEntry)
	Batch []batchItem     `json:"batch,omitempty"` // accepted plans (addPlanBatch)
}

// batchItem is one accepted plan inside an addPlanBatch record. The whole
// batch shares one frame, one sequence number and one fsync, so a torn tail
// drops the batch atomically — recovery never sees part of it.
type batchItem struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// encodeRecord frames the record for appending. The payload is the bytes
// json.Marshal writes for the record (recovery reads it with json.Unmarshal),
// appended field by field in the struct's order and under its omitempty rules,
// with the strings spelled by jsonstr.AppendGrown. Item is json.Marshal output
// already (AddEntry marshals the entry), and so compact and escaped as Marshal
// would write it: it is appended as it stands. The payload's length is counted
// first, so an oversized record is refused before anything is allocated for
// it, and a record is framed in one buffer of its exact size, into which each
// string is spelled without being counted again.
func encodeRecord(rec *record) ([]byte, error) {
	n := recordLen(rec)
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: %d bytes encoded, limit %d", ErrRecordTooLarge, n, maxRecordBytes)
	}
	buf := make([]byte, headerSize, headerSize+n)
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, rec.Seq, 10)
	buf = jsonstr.AppendGrown(append(buf, `,"op":`...), rec.Op)
	if rec.ID != "" {
		buf = jsonstr.AppendGrown(append(buf, `,"id":`...), rec.ID)
	}
	if rec.Text != "" {
		buf = jsonstr.AppendGrown(append(buf, `,"text":`...), rec.Text)
	}
	if len(rec.Item) > 0 {
		buf = append(append(buf, `,"entry":`...), rec.Item...)
	}
	if len(rec.Batch) > 0 {
		buf = append(buf, `,"batch":[`...)
		for i, it := range rec.Batch {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonstr.AppendGrown(append(buf, `{"id":`...), it.ID)
			buf = append(jsonstr.AppendGrown(append(buf, `,"text":`...), it.Text), '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '}')
	payload := buf[headerSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// recordLen is the length of the payload encodeRecord appends for rec.
func recordLen(rec *record) int {
	n := len(`{"seq":,"op":}`) + decimalLen(rec.Seq) + jsonstr.Len(rec.Op)
	if rec.ID != "" {
		n += len(`,"id":`) + jsonstr.Len(rec.ID)
	}
	if rec.Text != "" {
		n += len(`,"text":`) + jsonstr.Len(rec.Text)
	}
	if len(rec.Item) > 0 {
		n += len(`,"entry":`) + len(rec.Item)
	}
	if len(rec.Batch) > 0 {
		n += len(`,"batch":[]`) + len(rec.Batch) - 1
		for _, it := range rec.Batch {
			n += len(`{"id":,"text":}`) + jsonstr.Len(it.ID) + jsonstr.Len(it.Text)
		}
	}
	return n
}

// decimalLen is the number of digits strconv.AppendUint writes for x in base 10.
func decimalLen(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// scanWAL reads every intact record from the log at path. It returns the
// decoded records, the byte offset just past each good frame (so callers
// can truncate back to any record boundary; the last entry is the good
// length of the log), and whether a torn or corrupt tail was found after
// that offset. A missing file scans as empty; any other read failure (bad
// sector, injected fault) is an error, never a torn tail — truncating there
// would destroy data that may be intact.
//
// The log is read whole and its frames are slices of that one buffer, so a
// length field claiming more than the file still holds is a torn tail before
// anything is allocated for it. Frames are verified in order on the calling
// goroutine (a frame's position is the sum of the lengths before it, and the
// CRC costs a fraction of the decode); the verified payloads are then decoded
// through parallel, one task per record — the engine's pool, Engine.Parallel.
// A verified frame that does not decode ends the log there, as a torn tail:
// the first such frame in log order, whatever order the tasks finished in.
// The buffer is garbage when scanWAL returns, before replay builds anything.
func scanWAL(fsys storefs.FS, path string, parallel func(n int, task func(i int))) (recs []record, ends []int64, torn bool, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: reading WAL: %w", err)
	}
	payloads, ends, torn := scanFrames(data)
	recs = make([]record, len(payloads))
	undecoded := make([]bool, len(payloads))
	parallel(len(payloads), func(i int) {
		// The frame verified but the payload is not a record we can read:
		// the log stops here rather than guess (version skew).
		undecoded[i] = json.Unmarshal(payloads[i], &recs[i]) != nil
	})
	for i, bad := range undecoded {
		if bad {
			return recs[:i], ends[:i], true, nil
		}
	}
	return recs, ends, torn, nil
}

// scanFrames walks the framing of a whole log: the payload of every frame
// up to the first whose header, length or checksum does not verify, the
// offset just past each, and whether bytes were left over after the last
// good one. Everything it returns is intact by CRC.
func scanFrames(data []byte) (payloads [][]byte, ends []int64, torn bool) {
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < headerSize {
			return payloads, ends, true // torn header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length < 2 || length > maxRecordBytes {
			return payloads, ends, true // implausible length: corrupt
		}
		rest = rest[headerSize:]
		if uint64(length) > uint64(len(rest)) {
			return payloads, ends, true // torn payload, or a length that lies
		}
		payload := rest[:length]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, ends, true // bit rot or torn rewrite
		}
		payloads = append(payloads, payload)
		off += headerSize + int(length)
		ends = append(ends, int64(off))
	}
	return payloads, ends, false
}

// goodLength is the byte length of the intact prefix scanWAL found.
func goodLength(ends []int64) int64 {
	if len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1]
}
