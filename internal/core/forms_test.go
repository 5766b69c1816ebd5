package core_test

// Machine-form oracles. Every way of naming a core mix — the System presets,
// a custom NBig/NLit mix, a 2-class or N-way Topology — resolves to one
// ordered class list, and the simulated outcome must depend only on that
// list. TestMachineFormsGolden pins each form's canonical outcome bytes
// against a committed golden; FuzzMachineForms checks that the three
// spellings of any 2-class mix agree byte for byte.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"aaws/internal/core"
	"aaws/internal/jobs"
	"aaws/internal/kernels"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/wsrt"
)

const machineFormsGolden = "../../examples/conformance/machine_forms.json"

// machineForm is one way of describing a machine in a Spec.
type machineForm struct {
	name  string
	apply func(*core.Spec)
}

func mustTopology(s string) []core.CoreClass {
	topo, err := core.ParseTopology(s)
	if err != nil {
		panic(err)
	}
	return topo
}

func machineForms() []machineForm {
	topo := func(s string) func(*core.Spec) {
		return func(sp *core.Spec) { sp.Topology = mustTopology(s) }
	}
	mix := func(nBig, nLit int) func(*core.Spec) {
		return func(sp *core.Spec) { sp.NBig, sp.NLit = nBig, nLit }
	}
	return []machineForm{
		{"system-4B4L", func(sp *core.Spec) { sp.System = core.Sys4B4L }},
		{"system-1B7L", func(sp *core.Spec) { sp.System = core.Sys1B7L }},
		{"mix-2B6L", mix(2, 6)},
		{"mix-3B1L", mix(3, 1)},
		{"topology-4,4", topo("4,4")},
		{"topology-2x3/2.5,6", topo("2x3/2.5,6")},
		{"topology-1x4/3,3x2/1.8,4", topo("1x4/3,3x2/1.8,4")},
		{"topology-1x4/3,2x2.4/2.2,2x1.6/1.5,3", topo("1x4/3,2x2.4/2.2,2x1.6/1.5,3")},
	}
}

// outcomeBytes runs spec and returns its canonical outcome bytes, spec hash
// included (so a moved spec hash fails the golden too).
func outcomeBytes(t testing.TB, spec core.Spec) []byte {
	t.Helper()
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	hash, err := jobs.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobs.CanonicalJSON(jobs.NewOutcome(hash, res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMachineFormsGolden pins the canonical outcome of every machine form
// under base and base+psm, for a sort and a non-sort kernel, plus a
// mis-calibrated-LUT adaptive-DVFS cell and the aaws-model 4B4L
// pacing+sprinting table text. The golden was taken before the 2-class and
// N-way machine paths were merged, so it proves the merge changed no result.
func TestMachineFormsGolden(t *testing.T) {
	got := map[string]string{}
	for _, kernel := range []string{"cilksort", "hull"} {
		for _, v := range []wsrt.Variant{wsrt.Base, wsrt.BasePSM} {
			for _, f := range machineForms() {
				spec := core.DefaultSpec(kernel, core.Sys4B4L, v)
				spec.Scale = 0.25
				f.apply(&spec)
				got[kernel+"/"+v.String()+"/"+f.name] = sha(outcomeBytes(t, spec))
			}
		}
	}

	adaptive := core.DefaultSpec("cilksort", core.Sys4B4L, wsrt.BasePS)
	adaptive.Scale = 0.25
	adaptive.LUTAlpha, adaptive.LUTBeta = 1.05, 1.05
	adaptive.AdaptiveDVFS = true
	got["cilksort/base+ps/system-4B4L/lut-1.05-1.05/adaptive"] = sha(outcomeBytes(t, adaptive))

	// The table aaws-model -lut pacing+sprinting prints with its defaults.
	lut := model.GenerateLUT(model.Config{
		Params: power.DefaultParams().WithAlphaBeta(3, 2), NBig: 4, NLit: 4,
	}, model.ModePacingSprinting)
	got["aaws-model/lut/pacing+sprinting"] = sha([]byte(lut.String()))

	blob, err := os.ReadFile(machineFormsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for k, g := range got {
		if want[k] != g {
			diffs = append(diffs, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			diffs = append(diffs, k+" (missing)")
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		cur, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("machine forms diverged from %s:\n  %s\ncurrent values:\n%s",
			machineFormsGolden, strings.Join(diffs, "\n  "), cur)
	}
}

// FuzzMachineForms: the three spellings of a 2-class mix — NBig/NLit, an
// explicit topology of two bare counts, and the System preset where one
// matches — resolve to the same class list, so their canonical outcome
// bytes (spec hash blanked: the specs legitimately differ) must be
// identical for any mix of 1..8 big and 1..8 little cores.
func FuzzMachineForms(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), uint8(4), uint64(42))
	f.Add(uint8(0), uint8(6), uint8(1), uint8(1), uint64(7))
	f.Add(uint8(1), uint8(5), uint8(2), uint8(2), uint64(1))
	f.Add(uint8(7), uint8(7), uint8(3), uint8(3), uint64(99))
	f.Add(uint8(0), uint8(0), uint8(4), uint8(0), uint64(5))
	names := kernels.Names()
	f.Fuzz(func(t *testing.T, bigSel, litSel, kernel, variant uint8, seed uint64) {
		nBig, nLit := 1+int(bigSel)%8, 1+int(litSel)%8
		spec := core.Spec{
			Kernel:  names[int(kernel)%len(names)],
			Variant: wsrt.Variants[int(variant)%len(wsrt.Variants)],
			Seed:    seed, Scale: 0.05, Check: true,
		}
		forms := map[string]core.Spec{}
		mix := spec
		mix.NBig, mix.NLit = nBig, nLit
		forms["NBig/NLit"] = mix
		topo := spec
		topo.Topology = []core.CoreClass{{Count: nBig}, {Count: nLit}}
		forms["Topology"] = topo
		for _, sys := range []core.System{core.Sys4B4L, core.Sys1B7L} {
			if sb, sl := sys.Counts(); sb == nBig && sl == nLit {
				preset := spec
				preset.System = sys
				forms["System"] = preset
			}
		}
		want := ""
		for _, name := range []string{"NBig/NLit", "Topology", "System"} {
			s, ok := forms[name]
			if !ok {
				continue
			}
			res, err := core.Run(s)
			if err != nil {
				t.Fatalf("%s %dB%dL: %v", name, nBig, nLit, err)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("%s %dB%dL: %v", name, nBig, nLit, err)
			}
			b, err := jobs.CanonicalJSON(jobs.NewOutcome("", res))
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = string(b)
			} else if string(b) != want {
				t.Errorf("%s/%v %dB%dL: %s form diverged from NBig/NLit:\n%s\n%s",
					spec.Kernel, spec.Variant, nBig, nLit, name, want, b)
			}
		}
	})
}
