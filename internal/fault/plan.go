package fault

import (
	"bufio"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Plan is a deterministic fault schedule: the faults to inject into one
// run, sorted by cycle. A Plan is a pure function of the generation seed
// and parameters, and Encode/DecodePlan round-trip it exactly, so a
// campaign can be reproduced from nothing but its seed.
type Plan struct {
	Seed   int64
	Faults []Fault
}

// GenParams bounds random fault generation.
type GenParams struct {
	Window   int    // station count; slots are drawn from [0, Window)
	NumRegs  int    // logical registers; merge faults draw from [0, NumRegs)
	MaxCycle int64  // injection cycles are drawn from [1, MaxCycle]
	Sites    []Site // candidate sites; nil means AllSites()
	N        int    // number of faults
	// StuckDur bounds SiteReadyStuck0 hold times: durations are drawn
	// from [1, StuckDur]. 0 means 4*Window — long enough to starve a full
	// ring into the watchdog on unlucky draws, short enough that most
	// draws are pure delay.
	StuckDur int64
}

// NewPlan generates a random fault plan from the seed. Identical
// (seed, params) always yield an identical plan.
func NewPlan(seed int64, p GenParams) *Plan {
	rng := rand.New(newPlanSource(seed))
	sites := p.Sites
	if len(sites) == 0 {
		sites = AllSites()
	}
	if p.Window < 1 {
		p.Window = 1
	}
	if p.NumRegs < 1 {
		p.NumRegs = 1
	}
	if p.MaxCycle < 1 {
		p.MaxCycle = 1
	}
	stuckDur := p.StuckDur
	if stuckDur <= 0 {
		stuckDur = 4 * int64(p.Window)
	}
	pl := &Plan{Seed: seed, Faults: make([]Fault, 0, p.N)}
	for i := 0; i < p.N; i++ {
		f := Fault{
			Site:  sites[rng.Intn(len(sites))],
			Cycle: 1 + rng.Int63n(p.MaxCycle),
			Slot:  int32(rng.Intn(p.Window)),
			Bit:   uint8(rng.Intn(32)),
			Op:    uint8(rng.Intn(2)),
			Reg:   uint8(rng.Intn(p.NumRegs)),
		}
		if f.Site == SiteReadyStuck0 {
			f.Dur = 1 + rng.Int63n(stuckDur)
		}
		pl.Faults = append(pl.Faults, f)
	}
	pl.Sort()
	return pl
}

// Sort orders the faults by (cycle, slot, site) — the order the engine
// applies them in.
func (p *Plan) Sort() {
	sort.SliceStable(p.Faults, func(i, j int) bool {
		a, b := p.Faults[i], p.Faults[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return a.Site < b.Site
	})
}

// Equal reports whether two plans schedule identical faults.
func (p *Plan) Equal(q *Plan) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.Seed != q.Seed || len(p.Faults) != len(q.Faults) {
		return false
	}
	for i := range p.Faults {
		if p.Faults[i] != q.Faults[i] {
			return false
		}
	}
	return true
}

// planHeader begins every encoded plan.
const planHeader = "usfault-plan/v1"

// Encode renders the plan in the stable text form DecodePlan parses:
//
//	usfault-plan/v1 seed=<seed>
//	<site> cycle=<c> slot=<s> bit=<b> op=<o> reg=<r> dur=<d>
//
// one line per fault, in plan order.
func (p *Plan) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d\n", planHeader, p.Seed)
	for _, f := range p.Faults {
		fmt.Fprintf(&b, "%s cycle=%d slot=%d bit=%d op=%d reg=%d dur=%d\n",
			f.Site, f.Cycle, f.Slot, f.Bit, f.Op, f.Reg, f.Dur)
	}
	return b.String()
}

// DecodePlan parses the Encode format back into a plan. The decoded plan
// is re-sorted, so Encode(DecodePlan(Encode(p))) == Encode(p).
func DecodePlan(s string) (*Plan, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	if !sc.Scan() {
		return nil, fmt.Errorf("fault: empty plan")
	}
	var seed int64
	if n, err := fmt.Sscanf(sc.Text(), planHeader+" seed=%d", &seed); n != 1 || err != nil {
		return nil, fmt.Errorf("fault: bad plan header %q", sc.Text())
	}
	p := &Plan{Seed: seed}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		name, rest, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("fault: line %d: malformed fault %q", line, text)
		}
		site, ok := SiteFromString(name)
		if !ok {
			return nil, fmt.Errorf("fault: line %d: unknown site %q", line, name)
		}
		f := Fault{Site: site}
		n, err := fmt.Sscanf(rest, "cycle=%d slot=%d bit=%d op=%d reg=%d dur=%d",
			&f.Cycle, &f.Slot, &f.Bit, &f.Op, &f.Reg, &f.Dur)
		if n != 6 || err != nil {
			return nil, fmt.Errorf("fault: line %d: malformed fault fields %q", line, rest)
		}
		if f.Cycle < 0 || f.Slot < 0 || f.Bit > 31 || f.Op > 1 || f.Dur < 0 {
			return nil, fmt.Errorf("fault: line %d: field out of range in %q", line, text)
		}
		p.Faults = append(p.Faults, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault: reading plan: %w", err)
	}
	p.Sort()
	return p, nil
}
