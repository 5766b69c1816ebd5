package kernels

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"aaws/internal/wsrt"
)

// contentHash hashes everything reachable from v by value: numbers,
// strings, and the contents of slices, arrays, structs and pointees. Funcs
// are skipped: they carry no input data (the family cost models are fixed
// code), and a sync.OnceValue reference is allowed to cache what it
// computed.
func contentHash(t *testing.T, v any) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	seen := map[uintptr]bool{}
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			put(v.Uint())
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.String:
			put(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				put(0)
				return
			}
			if v.Kind() == reflect.Pointer {
				if seen[v.Pointer()] {
					put(2)
					return
				}
				seen[v.Pointer()] = true
			}
			put(1)
			walk(v.Elem())
		case reflect.Func:
		default:
			t.Fatalf("contentHash: unsupported kind %s", v.Kind())
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}

// TestSharedInputOracle is the contract that lets the batch path prepare
// one input per (kernel, seed, scale) and share it across cells: for every
// kernel, extensions included, several checked instances of one prepared
// input run exactly like a workload from New (same report, same final
// state), and none of them — nor their serial references — changes the
// prepared input.
func TestSharedInputOracle(t *testing.T) {
	const seed, scale = 42, 0.25
	for _, k := range AllWithExtensions() {
		t.Run(k.Name, func(t *testing.T) {
			w := k.New(seed, scale)
			want := runWorkload(t, k, w, wsrt.BasePSM, 4, 4)
			if err := w.Check(); err != nil {
				t.Fatalf("New: %v", err)
			}
			wantState := contentHash(t, w)

			in := k.Prepare(seed, scale)
			before := contentHash(t, in)
			for i := 0; i < 3; i++ {
				w := in.Instance()
				rep := runWorkload(t, k, w, wsrt.BasePSM, 4, 4)
				if err := w.Check(); err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("instance %d: report differs from New's:\n%+v\n%+v", i, rep, want)
				}
				if got := contentHash(t, w); got != wantState {
					t.Errorf("instance %d: final state %x, New's %x", i, got, wantState)
				}
			}
			if after := contentHash(t, in); after != before {
				t.Errorf("prepared input changed: hash %x before the instances ran, %x after", before, after)
			}
		})
	}
}
