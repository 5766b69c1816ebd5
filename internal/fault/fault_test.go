package fault

import (
	"strings"
	"testing"

	"aaws/internal/icn"
	"aaws/internal/machine"
	"aaws/internal/model"
	"aaws/internal/power"
	"aaws/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	cases := []Config{
		{MugDropRate: 0.1},
		{MugDelayRate: 0.1},
		{VRStuckRate: 0.1},
		{VRSlowRate: 0.1},
		{Fails: []CoreFail{{Core: 1}}},
		{Throttles: []Throttle{{Core: 1, For: 1, Factor: 0.5}}},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: enabled config reports disabled", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	const n = 8
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"drop rate > 1", Config{MugDropRate: 1.5}, "drop rate"},
		{"negative delay rate", Config{MugDelayRate: -0.1}, "delay rate"},
		{"stuck rate > 1", Config{VRStuckRate: 2}, "stuck rate"},
		{"slow max < 1", Config{VRSlowRate: 0.5, VRSlowMax: 0.5}, "slow max"},
		{"negative delay max", Config{MugDelayRate: 0.5, MugDelayMax: -1}, "delay max"},
		{"fail core 0", Config{Fails: []CoreFail{{Core: 0}}}, "core 0 hosts the root program"},
		{"fail core out of range", Config{Fails: []CoreFail{{Core: n}}}, "cannot fail core"},
		{"fail at negative time", Config{Fails: []CoreFail{{Core: 1, At: -1}}}, "negative time"},
		{"throttle factor 0", Config{Throttles: []Throttle{{Core: 1, For: 1}}}, "factor"},
		{"throttle factor > 1", Config{Throttles: []Throttle{{Core: 1, For: 1, Factor: 2}}}, "factor"},
		{"throttle zero window", Config{Throttles: []Throttle{{Core: 1, Factor: 0.5}}}, "window"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate(n)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	good := Config{
		Seed:        7,
		MugDropRate: 0.3, MugDelayRate: 0.5, MugDelayMax: sim.Microsecond,
		VRStuckRate: 0.1, VRSlowRate: 0.2, VRSlowMax: 8,
		Fails:     []CoreFail{{Core: 1, At: sim.Microsecond}},
		Throttles: []Throttle{{Core: 7, At: 0, For: sim.Microsecond, Factor: 0.5}},
	}
	if err := good.Validate(n); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Throttling core 0 is allowed (it slows down but keeps running).
	if err := (Config{Throttles: []Throttle{{Core: 0, For: 1, Factor: 0.5}}}).Validate(n); err != nil {
		t.Errorf("core-0 throttle rejected: %v", err)
	}
}

func new4B4L(t *testing.T) *machine.Machine {
	t.Helper()
	p := power.DefaultParams()
	cfg := model.Config{Params: p, NBig: 4, NLit: 4}
	lut := model.GenerateLUT(cfg, model.ModeNominal)
	m, err := machine.New(sim.NewEngine(), machine.Config{Classes: cfg.NConfig().Classes, LUT: lut, InterruptCycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInjectorDeterminism: two injectors with the same seed make identical
// drop/delay decisions for the same message stream.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, MugDropRate: 0.4, MugDelayRate: 0.5}
	type outcome struct {
		drop  bool
		extra sim.Time
	}
	run := func() []outcome {
		in := New(cfg)
		hook := in.msgHook(sim.Microsecond)
		var out []outcome
		for i := 0; i < 500; i++ {
			d, x := hook(icn.Message{From: i % 8, To: (i + 1) % 8, Seq: uint64(i)})
			out = append(out, outcome{d, x})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestInjectorStreamsIndependent: enabling VR faults must not change the
// message-fault decisions (separate salted streams per subsystem).
func TestInjectorStreamsIndependent(t *testing.T) {
	msgOnly := Config{Seed: 5, MugDropRate: 0.3}
	both := Config{Seed: 5, MugDropRate: 0.3, VRStuckRate: 0.5, VRSlowRate: 0.5}
	decide := func(cfg Config) []bool {
		in := New(cfg)
		mh := in.msgHook(sim.Microsecond)
		vh := in.vrHook(16)
		var drops []bool
		for i := 0; i < 200; i++ {
			d, _ := mh(icn.Message{Seq: uint64(i)})
			drops = append(drops, d)
			if cfg.VRStuckRate > 0 {
				// Interleave regulator decisions; they must not disturb
				// the message stream.
				vh(1.0, 1.1, sim.Microsecond)
			}
		}
		return drops
	}
	a, b := decide(msgOnly), decide(both)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: VR stream perturbed the message stream", i)
		}
	}
}

// TestAttachSchedulesFailsAndThrottles: attached fail-stops and throttles
// fire at their configured instants through the machine's fault surface.
func TestAttachSchedulesFailsAndThrottles(t *testing.T) {
	m := new4B4L(t)
	cfg := Config{
		Fails: []CoreFail{
			{Core: 5, At: 2 * sim.Microsecond},
			{Core: 5, At: 3 * sim.Microsecond}, // duplicate: must be a no-op
			{Core: 3, At: 2 * sim.Microsecond},
		},
		Throttles: []Throttle{{Core: 1, At: sim.Microsecond, For: sim.Microsecond, Factor: 0.5}},
	}
	in := New(cfg)
	if err := in.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunUntil(10 * sim.Microsecond)
	if !m.Failed(5) || !m.Failed(3) {
		t.Error("scheduled fail-stops did not land")
	}
	st := in.Stats()
	if st.CoreFails != 2 {
		t.Errorf("CoreFails = %d, want 2 (duplicate must not double-count)", st.CoreFails)
	}
	if st.Throttles != 1 {
		t.Errorf("Throttles = %d, want 1", st.Throttles)
	}
}

// TestAttachRejectsInvalid: Attach validates against the actual machine
// shape.
func TestAttachRejectsInvalid(t *testing.T) {
	m := new4B4L(t)
	if err := New(Config{Fails: []CoreFail{{Core: 8}}}).Attach(m); err == nil {
		t.Error("attached a fail-stop for a core the machine does not have")
	}
	if err := New(Config{Fails: []CoreFail{{Core: 0}}}).Attach(m); err == nil {
		t.Error("attached a fail-stop for core 0")
	}
}
