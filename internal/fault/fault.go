// Package fault defines the deterministic fault-injection model shared by
// the cycle engine (internal/core), the campaign runner (internal/exp)
// and the usfault tool: where transient faults strike the simulated
// microarchitecture (Site), when and how (Fault, Plan), what detection
// hardware is modeled (Detect), and what actually happened during a run
// (Log, Record).
//
// The paper's scalability argument assumes every CSPP merge, forwarded
// operand and circulating register value arrives intact; this package
// makes those exact structures misbehave on purpose, deterministically.
// The determinism contract: a Plan is a pure function of its seed and
// generation parameters, the engine applies it as a pure function of
// (program, config, plan), and therefore identical seeds produce
// byte-identical campaign reports — across runs and across worker counts.
package fault

// Site names a microarchitectural fault site — a class of hardware
// structure a transient fault can strike.
type Site uint8

// The fault sites. Value faults (SiteResultBit, SiteOperandBit,
// SiteMergeBit) flip bits; protocol faults (the rest) corrupt control
// state: readiness or the CSPP forwarding decision itself.
const (
	// SiteResultBit flips one bit of a completed result circulating in an
	// execution station — the register value held in the station's latch
	// and re-driven onto the CSPP wires every cycle. Breaks the value's
	// parity, so it is the one site parity checking catches.
	SiteResultBit Site = iota
	// SiteOperandBit flips one bit of a source operand in transit to a
	// single station — after the producer's parity was generated, before
	// the consumer latches. The consumer computes a self-consistent wrong
	// result, so parity cannot see it; only the golden cross-check can.
	SiteOperandBit
	// SiteMergeBit flips one bit at a CSPP merge node for one logical
	// register: every station latching that register this cycle receives
	// the corrupted value (a shared-subtree failure, unlike the
	// single-consumer SiteOperandBit).
	SiteMergeBit
	// SiteReadyStuck1 forces a waiting station's ready bit high for one
	// cycle: it issues immediately with whatever (possibly stale) operand
	// values its latches hold.
	SiteReadyStuck1
	// SiteReadyStuck0 holds a station's ready bit low for Dur cycles: the
	// station cannot issue. Short durations are pure delay; a duration
	// beyond the engine's watchdog window starves retirement entirely and
	// is caught as a livelock, recovered by squash-and-replay.
	SiteReadyStuck0
	// SiteDropForward drops the nearest-producer forward for one operand:
	// the station latches the stale committed register value instead, as
	// if the CSPP segment bit failed open.
	SiteDropForward
	// SiteDupForward duplicates an old forward: the station latches the
	// value of an older in-window producer of the same register (or the
	// committed value if there is none), as if a stale merge output won
	// the wired-OR.
	SiteDupForward

	numSites
)

// siteNames maps sites to their wire names (plan encoding, reports).
var siteNames = [numSites]string{
	"result-bit", "operand-bit", "merge-bit",
	"ready-stuck1", "ready-stuck0", "drop-forward", "dup-forward",
}

// String returns the site's wire name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "site(?)"
}

// SiteFromString inverts String; ok is false for unknown names.
func SiteFromString(name string) (Site, bool) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), true
		}
	}
	return 0, false
}

// AllSites returns every defined site, in declaration order.
func AllSites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Fault is one scheduled transient fault.
type Fault struct {
	Site  Site
	Cycle int64 // cycle the fault strikes (injection happens after forwarding)
	Slot  int32 // target execution-station slot (taken mod window)
	Bit   uint8 // bit index to flip, 0..31 (value faults)
	Op    uint8 // operand index 0 or 1 (operand faults)
	Reg   uint8 // logical register (SiteMergeBit; taken mod NumRegs)
	Dur   int64 // hold duration in cycles (SiteReadyStuck0; 0 means 1)
}

// Detect selects the modeled detection hardware.
type Detect uint8

// The detection modes.
const (
	// DetectNone commits whatever the datapath produced: corrupted state
	// reaches the architectural register file and memory. Campaigns use
	// it to measure the raw silent-data-corruption rate.
	DetectNone Detect = iota
	// DetectParity models per-value parity carried with every circulating
	// result and checked at the commit port: it catches odd-weight value
	// corruption in a station's latched result (SiteResultBit), and is
	// blind to protocol faults that deliver validly-paritied wrong values.
	DetectParity
	// DetectGolden models a full architectural checker (DIVA-style): each
	// retiring instruction is cross-checked against the in-order golden
	// machine of internal/ref before it commits. Any architecturally
	// visible corruption is caught at the first retiring instruction it
	// reaches.
	DetectGolden
)

// detectNames maps modes to their wire names.
var detectNames = []string{"none", "parity", "golden"}

// String returns the mode's wire name.
func (d Detect) String() string {
	if int(d) < len(detectNames) {
		return detectNames[d]
	}
	return "detect(?)"
}

// DetectFromString inverts String; ok is false for unknown names.
func DetectFromString(name string) (Detect, bool) {
	for i, n := range detectNames {
		if n == name {
			return Detect(i), true
		}
	}
	return 0, false
}

// RecordKind classifies one fault-log record.
type RecordKind uint8

// The record kinds.
const (
	// RecInject: a scheduled fault landed on live microarchitectural
	// state (a vacuous fault — empty or ineligible target — logs nothing).
	RecInject RecordKind = iota
	// RecDetect: a checker (parity or golden cross-check) refused to
	// commit a retiring instruction.
	RecDetect
	// RecRecover: squash-and-replay recovery completed; Arg is the number
	// of stations squashed.
	RecRecover
	// RecWatchdog: the no-retire-progress watchdog fired during a fault
	// run and triggered recovery.
	RecWatchdog
)

// recordKindNames maps record kinds to their wire names.
var recordKindNames = []string{"inject", "detect", "recover", "watchdog"}

// String returns the record kind's wire name.
func (k RecordKind) String() string {
	if int(k) < len(recordKindNames) {
		return recordKindNames[k]
	}
	return "record(?)"
}

// Record is one fault-lifecycle event.
type Record struct {
	Kind  RecordKind
	Cycle int64
	Site  Site
	Seq   int64 // dynamic sequence number of the affected instruction (-1 if none)
	PC    int32 // static PC of the affected instruction (-1 if none)
	Slot  int32 // station slot (-1 if none)
	Arg   int64 // kind-specific payload (RecRecover: stations squashed)
}

// Log accumulates what happened during one faulted run. The engine fills
// it when Config.FaultLog is set; campaigns classify outcomes from it.
type Log struct {
	// Applied counts scheduled faults that landed on live state. A
	// scheduled fault whose target slot was empty or ineligible at its
	// cycle is vacuous and not counted.
	Applied int
	// Detected counts checker refusals (parity or golden mismatch).
	Detected int
	// Recovered counts completed squash-and-replay recoveries.
	Recovered int
	// WatchdogFires counts livelock-watchdog recoveries during the run.
	WatchdogFires int
	// SquashedStations totals stations squashed by fault recovery
	// (recovery cost in discarded work; cycle cost shows up in Stats).
	SquashedStations int64
	// Records holds the detailed lifecycle, in occurrence order.
	Records []Record
}

// Add appends one record and bumps the matching counter.
func (l *Log) Add(r Record) {
	if l == nil {
		return
	}
	switch r.Kind {
	case RecInject:
		l.Applied++
	case RecDetect:
		l.Detected++
	case RecRecover:
		l.Recovered++
		l.SquashedStations += r.Arg
	case RecWatchdog:
		l.WatchdogFires++
	}
	l.Records = append(l.Records, r)
}
