package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"aaws/internal/kernels"
	"aaws/internal/model"
	"aaws/internal/power"
)

// CoreClass is one class of an N-way heterogeneous topology, ordered
// fastest first (class 0 hosts logical thread 0). Speed is the class's IPC
// as a multiple of the paper's baseline little core (the role beta plays
// for big cores); Power is its dynamic-power coefficient (alpha's role).
// Zero values resolve to defaults: class 0 inherits the kernel's Table III
// beta/alpha, the last class is the baseline little core (1/1), and
// intermediate classes must be explicit. A 2-entry topology resolving to
// exactly (beta, alpha)/(1, 1) resolves to the big.LITTLE preset's class
// list and reproduces its results bit for bit.
//
// Every field carries omitempty so specs without a topology serialize to
// the same canonical bytes — and therefore the same content hashes — as
// before the field existed.
type CoreClass struct {
	Name  string  `json:",omitempty"`
	Count int     `json:",omitempty"`
	Speed float64 `json:",omitempty"`
	Power float64 `json:",omitempty"`
}

// Topology shape limits: enough room for any plausible asymmetric SoC
// while keeping LUT sizes (product of counts+1) and validation bounded.
const (
	maxTopologyClasses = 8
	maxTopologyCores   = 64
)

// machineDesc is a spec's core mix resolved to the one machine description
// everything below Spec is built from: the ordered class list (fastest
// first) and its canonical signature, which pins every class's count, side
// and alpha/beta and so keys LUT caching and batch partitioning.
type machineDesc struct {
	classes []model.NClass
	sig     string
}

// resolveMachine resolves System, NBig/NLit or Topology into the class
// list. The paper's mixes are the big and little side of the kernel's
// Table III parameters. A topology resolving to exactly that pair, the
// kernel's (beta, alpha)/(1, 1), yields the same class list and so shares
// the preset's LUT and partition; every other topology class is the big
// side of its own parameters.
func resolveMachine(s Spec) (machineDesc, error) {
	k := kernels.Get(s.Kernel)
	if k == nil {
		return machineDesc{}, fmt.Errorf("core: unknown kernel %q", s.Kernel)
	}
	p := power.DefaultParams().WithAlphaBeta(k.Alpha, k.Beta)
	pair := func(nBig, nLit int) []model.NClass {
		return model.Config{Params: p, NBig: nBig, NLit: nLit}.NConfig().Classes
	}
	var classes []model.NClass
	switch {
	case len(s.Topology) > 0:
		var err error
		if classes, err = topologyClasses(s.Topology, k); err != nil {
			return machineDesc{}, err
		}
		if len(classes) == 2 && classes[0].Params == p &&
			classes[1].Params == power.DefaultParams().WithAlphaBeta(1, 1) {
			classes = pair(classes[0].Count, classes[1].Count)
		}
	case s.NBig > 0:
		classes = pair(s.NBig, s.NLit)
	default:
		classes = pair(s.System.Counts())
	}
	var buf [64]byte
	sig := buf[:0]
	for i, cl := range classes {
		if i > 0 {
			sig = append(sig, ',')
		}
		sig = strconv.AppendInt(sig, int64(cl.Count), 10)
		sig = append(sig, 'x')
		sig = strconv.AppendFloat(sig, cl.Params.Beta, 'g', -1, 64)
		sig = append(sig, '/')
		sig = strconv.AppendFloat(sig, cl.Params.Alpha, 'g', -1, 64)
		if cl.Little {
			sig = append(sig, 'L')
		}
	}
	return machineDesc{classes: classes, sig: string(sig)}, nil
}

// numCores returns the machine's total core count.
func (m machineDesc) numCores() int {
	n := 0
	for _, cl := range m.classes {
		n += cl.Count
	}
	return n
}

// trackerClasses maps ranks onto the 2-class region tracker: the fastest
// class plays "big", everything else "little".
func (m machineDesc) trackerClasses() []power.CoreClass {
	cls := make([]power.CoreClass, 0, m.numCores())
	for rank, cl := range m.classes {
		class := power.Little
		if rank == 0 {
			class = power.Big
		}
		for i := 0; i < cl.Count; i++ {
			cls = append(cls, class)
		}
	}
	return cls
}

// topologyClasses applies defaults to and validates a spec topology
// against kernel k, returning one class per entry, each the big side of
// its own parameters: IPC(Big) = speed, Alpha = power, and the leakage
// current derived from the class's own nominal dynamic power (the same
// lambda rule the paper applies to its big core).
func topologyClasses(topo []CoreClass, k *kernels.Kernel) ([]model.NClass, error) {
	if len(topo) > maxTopologyClasses {
		return nil, fmt.Errorf("core: topology has %d classes (max %d)", len(topo), maxTopologyClasses)
	}
	total := 0
	classes := make([]model.NClass, len(topo))
	for i, cl := range topo {
		if cl.Count < 1 {
			return nil, fmt.Errorf("core: topology class %d has count %d (need >= 1)", i, cl.Count)
		}
		total += cl.Count
		s, p := cl.Speed, cl.Power
		switch {
		case i == 0:
			if s == 0 {
				s = k.Beta
			}
			if p == 0 {
				p = k.Alpha
			}
		case i == len(topo)-1:
			if s == 0 {
				s = 1
			}
			if p == 0 {
				p = 1
			}
		default:
			if s == 0 || p == 0 {
				return nil, fmt.Errorf("core: topology class %d needs explicit speed and power (only the first and last class have defaults)", i)
			}
		}
		if s < 0 || p < 0 || math.IsInf(s, 0) || math.IsInf(p, 0) || math.IsNaN(s) || math.IsNaN(p) {
			return nil, fmt.Errorf("core: topology class %d has invalid speed/power %g/%g", i, cl.Speed, cl.Power)
		}
		classes[i] = model.NClass{Count: cl.Count, Params: power.DefaultParams().WithAlphaBeta(p, s)}
	}
	if total > maxTopologyCores {
		return nil, fmt.Errorf("core: topology has %d cores (max %d)", total, maxTopologyCores)
	}
	for i := 1; i < len(classes); i++ {
		if s, prev := classes[i].Params.Beta, classes[i-1].Params.Beta; s > prev {
			return nil, fmt.Errorf("core: topology classes must be ordered fastest first (class %d speed %g > class %d speed %g)",
				i, s, i-1, prev)
		}
	}
	return classes, nil
}

// ParseTopology parses the CLI form of a topology: comma-separated classes
// "COUNT[xSPEED/POWER]", fastest first, e.g. "1x4/3,2x2.5/1.8,4" (a bare
// COUNT leaves speed/power to the positional defaults). It returns the
// unresolved class list; kernel-dependent defaults apply at run time.
func ParseTopology(s string) ([]CoreClass, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("core: empty topology")
	}
	parts := strings.Split(s, ",")
	out := make([]CoreClass, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		countStr, rest, hasSpec := strings.Cut(part, "x")
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil {
			return nil, fmt.Errorf("core: topology class %d: bad count %q", i, countStr)
		}
		cl := CoreClass{Count: count}
		if hasSpec {
			speedStr, powerStr, hasPower := strings.Cut(rest, "/")
			cl.Speed, err = strconv.ParseFloat(strings.TrimSpace(speedStr), 64)
			if err != nil {
				return nil, fmt.Errorf("core: topology class %d: bad speed %q", i, speedStr)
			}
			if hasPower {
				cl.Power, err = strconv.ParseFloat(strings.TrimSpace(powerStr), 64)
				if err != nil {
					return nil, fmt.Errorf("core: topology class %d: bad power %q", i, powerStr)
				}
			}
		}
		out = append(out, cl)
	}
	return out, nil
}

// FormatTopology renders a class list back to the CLI form parsed by
// ParseTopology (zero speed/power prints as a bare count).
func FormatTopology(topo []CoreClass) string {
	var b strings.Builder
	for i, cl := range topo {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(cl.Count))
		if cl.Speed != 0 || cl.Power != 0 {
			b.WriteByte('x')
			b.WriteString(strconv.FormatFloat(cl.Speed, 'g', -1, 64))
			b.WriteByte('/')
			b.WriteString(strconv.FormatFloat(cl.Power, 'g', -1, 64))
		}
	}
	return b.String()
}
