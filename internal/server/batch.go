// Batched plan ingest: POST /api/plans:batch accepts an NDJSON stream of
// plans — one JSON value per line, either a bare string of explain text or
// an object {"text": "..."} — validates every record individually, and
// applies the accepted plans as ONE repository mutation: a single WAL batch
// record with a single fsync (with -data) and a single engine
// data-generation bump, so the result cache invalidates once per batch
// instead of once per plan. The response reports a per-record outcome; the
// overall status is 201 when every record loaded, 207 on mixed outcomes,
// 422 when every record was rejected, 400 for malformed framing (empty batch,
// too many records) and 413 for a body over the batch byte bound.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"optimatch/internal/core"
)

// Default batch-ingest limits (override with WithBatchLimits / the daemon's
// -batch-max-records and -batch-max-bytes flags). The byte limit stays well
// under the store's 32 MiB WAL-record cap so an accepted batch always fits
// one journal record even after JSON escaping of the plan texts.
const (
	defaultBatchMaxRecords = 1024
	defaultBatchMaxBytes   = 8 << 20
)

// WithBatchLimits bounds POST /api/plans:batch: at most maxRecords NDJSON
// records and maxBytes of request body per batch. A body of maxBytes is read,
// one byte more answers 413, whatever WithMaxBody says (that bounds the
// other routes). A plan whose record alone exceeds maxBytes goes through
// POST /api/plans. Non-positive values keep the defaults.
func WithBatchLimits(maxRecords int, maxBytes int64) Option {
	return func(s *Server) {
		if maxRecords > 0 {
			s.batchMaxRecords = maxRecords
		}
		if maxBytes > 0 {
			s.batchMaxBytes = maxBytes
		}
	}
}

// batchCounters feed the optimatch_ingest_batch_* metrics.
type batchCounters struct {
	requests atomic.Int64 // batch requests that passed framing checks
	accepted atomic.Int64 // records loaded (and persisted, with a store)
	rejected atomic.Int64 // records refused (parse, validation, duplicate)
}

// batchRecordResult is the per-record outcome in the batch response.
type batchRecordResult struct {
	Index  int    `json:"index"`
	ID     string `json:"id,omitempty"`    // plan ID when the text parsed
	Status int    `json:"status"`          // 201, 409 or 422, per record
	Error  string `json:"error,omitempty"` // set when Status != 201
}

// batchResponse is the POST /api/plans:batch body.
type batchResponse struct {
	Accepted int                 `json:"accepted"`
	Rejected int                 `json:"rejected"`
	Results  []batchRecordResult `json:"results"`
}

// batchLine decodes one NDJSON record: either a bare JSON string or an
// object carrying the explain text under "text". A null is neither (it
// decodes into anything without error, hence the pointers).
func batchLine(line []byte) (string, error) {
	var text *string
	if err := json.Unmarshal(line, &text); err == nil && text != nil {
		return *text, nil
	}
	var obj struct {
		Text *string `json:"text"`
	}
	if err := json.Unmarshal(line, &obj); err != nil {
		return "", fmt.Errorf("record is neither a JSON string nor an object: %v", err)
	}
	if obj.Text == nil {
		return "", fmt.Errorf(`record is null or an object with no "text"`)
	}
	return *obj.Text, nil
}

func (s *Server) handleBatchUpload(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, s.batchMaxBytes)
	if !ok {
		return
	}
	lines := splitNDJSON(body)
	if len(lines) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch: want NDJSON, one plan per line"))
		return
	}
	if len(lines) > s.batchMaxRecords {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d records exceeds the %d-record limit", len(lines), s.batchMaxRecords))
		return
	}
	s.batch.requests.Add(1)

	// Decode the framing first: records that are not valid NDJSON values
	// fail individually, and only well-formed texts reach the store.
	results := make([]batchRecordResult, len(lines))
	texts := make([]string, 0, len(lines))
	toRecord := make([]int, 0, len(lines)) // texts index -> results index
	for i, line := range lines {
		results[i].Index = i
		text, err := batchLine(line)
		if err != nil {
			results[i].Status = http.StatusUnprocessableEntity
			results[i].Error = err.Error()
			continue
		}
		texts = append(texts, text)
		toRecord = append(toRecord, i)
	}

	if len(texts) > 0 {
		out, err := s.st.AddPlanBatch(texts)
		if err != nil {
			// The durability layer failed: nothing was persisted and
			// nothing was published to the engine, so the whole batch is
			// a 5xx — or a 503 + Retry-After when the store is degraded.
			s.writeStoreError(w, err, http.StatusInternalServerError)
			return
		}
		for j, ri := range toRecord {
			o := out[j]
			if o.Plan != nil {
				results[ri].ID = o.Plan.ID
			}
			switch {
			case o.Err == nil:
				results[ri].Status = http.StatusCreated
			case errors.Is(o.Err, core.ErrDuplicatePlan):
				results[ri].Status = http.StatusConflict
				results[ri].Error = o.Err.Error()
			default:
				results[ri].Status = http.StatusUnprocessableEntity
				results[ri].Error = o.Err.Error()
			}
		}
	}

	resp := batchResponse{Results: results}
	for i := range results {
		if results[i].Status == http.StatusCreated {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	s.batch.accepted.Add(int64(resp.Accepted))
	s.batch.rejected.Add(int64(resp.Rejected))
	status := http.StatusCreated
	switch {
	case resp.Accepted == 0:
		status = http.StatusUnprocessableEntity
	case resp.Rejected > 0:
		status = http.StatusMultiStatus
	}
	writeJSON(w, status, resp)
}

// splitNDJSON cuts the body into records on newlines, dropping blank lines
// (a trailing newline is the common case, not an empty record).
// The records alias body: nothing is copied.
func splitNDJSON(body []byte) [][]byte {
	var out [][]byte
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		body = rest
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		out = append(out, line)
	}
	return out
}
