// Package jobs turns the one-shot simulation drivers into a service: a Job
// is a canonically-serialized, validated core.Spec whose SHA-256 hash keys a
// content-addressed result cache, and an Executor runs jobs on a bounded
// worker pool with priorities, deadlines, cancellation, panic isolation and
// retry. The HTTP layer (Server) exposes the executor as a JSON API; the
// sweep and chaos commands route their matrices through the same executor so
// the service is the single execution path.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"aaws/internal/core"
)

// CanonicalJSON encodes v as canonical JSON: object keys sorted, no
// insignificant whitespace, no HTML escaping, and numbers normalized
// (integers as-is, floats in shortest round-trip form via strconv 'g'/-1).
// Two equal values always canonicalize to identical bytes, and — because
// shortest-form floats round-trip exactly — decoding and re-canonicalizing
// is the identity. This is what makes result bytes content-addressable.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	// The executor and the caches keep the returned bytes for as long as
	// the outcome lives, backing array included, so size the buffer for
	// the encoding up front (it rarely differs much from raw) and drop any
	// large slack a longer encoding left behind.
	var buf bytes.Buffer
	buf.Grow(len(raw))
	if err := writeCanonical(&buf, tree); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	if cap(out)-len(out) > len(out)/8 {
		out = bytes.Clone(out)
	}
	return out, nil
}

// writeCanonical emits one decoded JSON value in canonical form.
func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		return writeCanonicalNumber(buf, x)
	case string:
		return writeCanonicalString(buf, x)
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonicalString(buf, k); err != nil {
				return err
			}
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("jobs: cannot canonicalize %T", v)
	}
	return nil
}

// writeCanonicalNumber normalizes a number token: integer-form tokens pass
// through verbatim; anything with a fraction or exponent is re-formatted as
// the shortest string that parses back to the same float64.
func writeCanonicalNumber(buf *bytes.Buffer, n json.Number) error {
	s := n.String()
	if !bytes.ContainsAny([]byte(s), ".eE") {
		buf.WriteString(s)
		return nil
	}
	f, err := n.Float64()
	if err != nil {
		return fmt.Errorf("jobs: bad number %q: %w", s, err)
	}
	buf.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	return nil
}

// writeCanonicalString encodes s without HTML escaping (encoding/json's
// default escaping of <, > and & is lossless but ugly in stored artifacts).
func writeCanonicalString(buf *bytes.Buffer, s string) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		return err
	}
	// Encode appends a newline; canonical form has none.
	b := buf.Bytes()
	if len(b) > 0 && b[len(b)-1] == '\n' {
		buf.Truncate(len(b) - 1)
	}
	return nil
}

// Normalize fills the spec defaults that core.Run would fill (zero Scale
// means 1.0) so that semantically identical submissions hash identically.
func Normalize(spec core.Spec) core.Spec {
	if spec.Scale == 0 {
		spec.Scale = 1.0
	}
	return spec
}

// SpecHash returns the hex SHA-256 of the normalized spec's canonical JSON
// encoding: the content address of the simulation's result. Every field of
// the spec participates — two specs share a hash exactly when PR 1's
// determinism guarantees they produce bit-identical reports.
func SpecHash(spec core.Spec) (string, error) {
	b, err := CanonicalJSON(Normalize(spec))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ResultHash returns the hex SHA-256 of canonical result bytes, used as an
// ETag by the HTTP layer and in golden spec-hash → result-hash tests.
func ResultHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
