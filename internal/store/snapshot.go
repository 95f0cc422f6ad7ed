package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strconv"

	"optimatch/internal/jsonstr"
	"optimatch/internal/kb"
	"optimatch/internal/qep"
	"optimatch/internal/storefs"
)

const (
	snapshotName = "snapshot.json"
	walName      = "wal.log"
)

// snapshot is the compacted state of the repository: every plan's explain
// text plus the knowledge base in its kb.Save envelope. LastSeq records the
// newest WAL sequence number the snapshot absorbed; replay skips records at
// or below it. Generation counts compactions.
type snapshot struct {
	Version    int             `json:"version"`
	Generation uint64          `json:"generation"`
	LastSeq    uint64          `json:"lastSeq"`
	Plans      []snapshotPlan  `json:"plans"`
	KB         json.RawMessage `json:"kb"`
}

// snapshotPlan preserves one plan as explain text that qep.Parse reads back
// as the same plan. A snapshot this package writes holds qep.Text of the
// plan; one written before compaction rendered every plan may hold the text
// a client uploaded, in any spelling Parse accepts, and reads back alike.
type snapshotPlan struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// snapshotImage is a snapshot as compaction writes it: the snapshot's
// numbers, each plan's ID with its text already spelled as a JSON string, and
// the knowledge base's envelope.
type snapshotImage struct {
	generation, lastSeq uint64
	ids                 []string
	texts               [][]byte // texts[i] is plan ids[i]'s text, spelled by jsonstr.Append
	envelope            []byte   // the knowledge base, as kb.Save writes it
}

// buildSnapshot captures the given state, rendering the plans and spelling
// their texts as JSON on parallel — the engine's pool, Engine.Parallel — in
// strides, each stride rendering into one reused buffer. The caller must hold
// whatever lock guards the knowledge base.
func buildSnapshot(gen, lastSeq uint64, plans []*qep.Plan, base *kb.KnowledgeBase, parallel func(n int, task func(i int))) (*snapshotImage, error) {
	img := &snapshotImage{generation: gen, lastSeq: lastSeq, ids: make([]string, len(plans)), texts: make([][]byte, len(plans))}
	strides := min(runtime.GOMAXPROCS(0), len(plans))
	parallel(strides, func(first int) {
		var buf []byte
		for i := first; i < len(plans); i += strides {
			buf = qep.AppendText(buf[:0], plans[i])
			img.ids[i], img.texts[i] = plans[i].ID, jsonstr.Append(nil, buf)
		}
	})
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		return nil, fmt.Errorf("store: serializing knowledge base: %w", err)
	}
	img.envelope = buf.Bytes()
	return img, nil
}

// writeSnapshot persists the snapshot atomically: write to a temp file in
// the same directory, fsync it, rename over the live name, fsync the
// directory. A crash at any point leaves either the old snapshot or the
// new one, never a partial file. The file is the bytes json.Marshal writes
// for the snapshot struct, joined from the image in one buffer of exact size;
// the knowledge base goes through json.Marshal as a RawMessage, as it did in
// the struct: compacted, and escaped for HTML whatever kb.Save escapes.
func writeSnapshot(fsys storefs.FS, dir string, img *snapshotImage) error {
	kbJSON, err := json.Marshal(json.RawMessage(img.envelope))
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	const (
		head   = `{"version":1,"generation":`
		member = `{"id":,"text":}`
	)
	n := len(head) + decimalLen(img.generation) + len(`,"lastSeq":,"plans":[],"kb":}`) + decimalLen(img.lastSeq) + len(kbJSON)
	for i, id := range img.ids {
		n += len(member) + jsonstr.Len(id) + len(img.texts[i])
	}
	n += max(len(img.ids)-1, 0) // the commas between members
	data := append(make([]byte, 0, n), head...)
	data = strconv.AppendUint(data, img.generation, 10)
	data = strconv.AppendUint(append(data, `,"lastSeq":`...), img.lastSeq, 10)
	data = append(data, `,"plans":[`...)
	for i, id := range img.ids {
		if i > 0 {
			data = append(data, ',')
		}
		data = jsonstr.Append(append(data, `{"id":`...), id)
		data = append(append(append(data, `,"text":`...), img.texts[i]...), '}')
	}
	data = append(append(append(data, `],"kb":`...), kbJSON...), '}')
	return atomicWrite(fsys, dir, snapshotName, data)
}

// readSnapshot loads the current snapshot, or returns nil if none exists.
func readSnapshot(fsys storefs.FS, dir string) (*snapshot, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("store: snapshot version %d not supported", snap.Version)
	}
	return &snap, nil
}

// atomicWrite replaces dir/name with data via temp file + rename.
func atomicWrite(fsys storefs.FS, dir, name string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", name, err)
	}
	if err := fsys.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: publishing %s: %w", name, err)
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(fsys storefs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}
