package jobs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/wsrt"
)

// decodeCanonical parses JSON preserving number tokens, the same way
// CanonicalJSON re-reads its own output.
func decodeCanonical(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

func TestCanonicalJSONSortedKeysAndFloats(t *testing.T) {
	v := map[string]any{
		"zeta":  1.5,
		"alpha": []any{true, nil, "a<b&c"},
		"mid":   map[string]any{"y": 2, "x": 0.1},
	}
	got, err := jobs.CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"alpha":[true,null,"a<b&c"],"mid":{"x":0.1,"y":2},"zeta":1.5}`
	if string(got) != want {
		t.Fatalf("canonical form:\n got %s\nwant %s", got, want)
	}
}

// Canonical bytes must be a fixed point: decode + re-canonicalize is the
// identity. This is what lets cached bytes be re-served and re-fingerprinted
// without drift.
func TestCanonicalJSONIdentity(t *testing.T) {
	v := map[string]any{
		"tiny":  1e-300,
		"big":   1.7976931348623157e308,
		"third": 1.0 / 3.0,
		"neg":   -0.0625,
		"int":   uint64(1) << 62,
	}
	first, err := jobs.CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := decodeCanonical(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := jobs.CanonicalJSON(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-canonicalization drifted:\n first %s\nsecond %s", first, second)
	}
}

func TestSpecHashNormalization(t *testing.T) {
	a := core.Spec{Kernel: "cilksort", System: core.Sys4B4L, Variant: wsrt.BasePSM, Seed: 42}
	b := a
	b.Scale = 1.0 // zero Scale normalizes to 1.0
	ha, err := jobs.SpecHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := jobs.SpecHash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("normalized specs hash differently: %s vs %s", ha, hb)
	}
	c := a
	c.Seed = 43
	hc, err := jobs.SpecHash(c)
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("different seeds produced the same spec hash")
	}
	if len(ha) != 64 {
		t.Fatalf("spec hash %q is not hex SHA-256", ha)
	}
}

// Two independent simulations of the same spec must canonicalize to
// bit-identical bytes — the premise of content-addressed caching.
func TestResultHashStableAcrossRuns(t *testing.T) {
	spec := core.DefaultSpec("cilksort", core.Sys4B4L, wsrt.BasePSM)
	spec.Scale = 0.1
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		res, err := core.Run(jobs.Normalize(spec))
		if err != nil {
			t.Fatal(err)
		}
		data, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := encode(), encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("same spec produced different canonical bytes:\n%s\n%s", first, second)
	}
	if jobs.ResultHash(first) != jobs.ResultHash(second) {
		t.Fatal("result hashes differ for identical bytes")
	}

	// Decoding and re-encoding the outcome must also be the identity, so a
	// cache hit is indistinguishable from a fresh run.
	out, err := jobs.DecodeOutcome(first)
	if err != nil {
		t.Fatal(err)
	}
	again, err := jobs.CanonicalJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("Outcome round trip is not bit-identical")
	}
}

// TestCanonicalJSONRightSized: the executor and the caches keep canonical
// bytes together with their backing array, so the encoding must not carry a
// grown buffer's slack — whether it comes out longer than encoding/json's
// (float exponents gain a digit) or shorter (no HTML escapes).
func TestCanonicalJSONRightSized(t *testing.T) {
	spec := jobs.Normalize(core.Spec{Kernel: "qsort-2", Variant: wsrt.BasePSM, Scale: 0.1})
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	longer := make([]float64, 500)
	for i := range longer {
		longer[i] = 1.5e-7
	}
	for name, v := range map[string]any{
		"outcome": jobs.NewOutcome(hash, res),
		"longer":  longer,
		"shorter": strings.Repeat("<&>", 500),
	} {
		b, err := jobs.CanonicalJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) > len(b)+len(b)/8 {
			t.Errorf("%s: %d bytes in a %d-byte array", name, len(b), cap(b))
		}
	}
	b, err := jobs.CanonicalJSON(longer[:2])
	if err != nil || string(b) != "[1.5e-07,1.5e-07]" {
		t.Errorf("CanonicalJSON(%v) = %s, %v", longer[:2], b, err)
	}
}
