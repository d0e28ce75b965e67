package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// StoredResult is a memoized result wrapped with the parameter-registry
// schema version and an IEEE CRC-32 of the result bytes, so a reader
// can reject truncation, corruption and cross-build aliasing on its
// own.
//
// Nothing in the daemon uses the envelope any more: it was the wire
// format of the replica store API, which is gone (replicas share a
// -cache-dir instead). It remains only because benchmark/probes.go
// times EncodeStored and Decode (serve.encode_stored_us,
// serve.decode_stored_us) and benchmark/ is frozen; delete this file
// and its test once those two probes are dropped.
type StoredResult struct {
	Schema int             `json:"schema"`
	CRC32  uint32          `json:"crc32"`
	Result json.RawMessage `json:"result"`
}

// EncodeStored wraps a result in the envelope.
func EncodeStored(res machine.Result) (StoredResult, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return StoredResult{}, err
	}
	return StoredResult{Schema: param.SchemaVersion, CRC32: crc32.ChecksumIEEE(data), Result: data}, nil
}

// Decode validates the envelope — schema match, CRC over the result
// bytes — and unpacks the result. Every failure is an error; a caller
// must treat it as a miss (recompute), never as data.
//
// The CRC is taken over the compact encoding of the result, so it
// survives whitespace re-formatting while still catching truncation
// and content corruption.
func (s StoredResult) Decode() (machine.Result, error) {
	if s.Schema != param.SchemaVersion {
		return machine.Result{}, fmt.Errorf("stored result schema %d, this build speaks %d", s.Schema, param.SchemaVersion)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, s.Result); err != nil {
		return machine.Result{}, fmt.Errorf("stored result body: %w", err)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != s.CRC32 {
		return machine.Result{}, fmt.Errorf("stored result CRC mismatch (envelope %08x, body %08x)", s.CRC32, got)
	}
	var res machine.Result
	if err := json.Unmarshal(s.Result, &res); err != nil {
		return machine.Result{}, fmt.Errorf("stored result body: %w", err)
	}
	return res, nil
}
