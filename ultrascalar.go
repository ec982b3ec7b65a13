// Package ultrascalar is a library reproduction of "A Comparison of
// Scalable Superscalar Processors" (Kuszmaul, Henry and Loh, SPAA 1999).
//
// It provides cycle-accurate simulators of the paper's three scalable
// out-of-order processors — the Ultrascalar I, the Ultrascalar II and the
// hybrid Ultrascalar — together with constructive VLSI models (floorplans,
// wire lengths, gate-delay netlists) that regenerate the paper's
// complexity comparison, and an assembler plus reference interpreter for
// the simple RISC ISA the processors execute.
//
// Quick start:
//
//	prog, _ := ultrascalar.Assemble(`
//	    li r1, 6
//	    li r2, 7
//	    mul r3, r1, r2
//	    halt
//	`)
//	p, _ := ultrascalar.New(ultrascalar.Hybrid, 64, ultrascalar.WithClusterSize(32))
//	res, _ := p.Run(prog.Insts, ultrascalar.NewMemory())
//	fmt.Println(res.Regs[3], res.Stats.IPC())
//
// The physical side:
//
//	model, _ := p.Physical(ultrascalar.DefaultTech())
//	fmt.Println(model.GateDelay, model.MaxWireL, model.AreaL2())
package ultrascalar

import (
	"context"
	"fmt"
	"time"

	"ultrascalar/internal/asm"
	"ultrascalar/internal/branch"
	"ultrascalar/internal/core"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/gatesim"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/vlsi"
	"ultrascalar/internal/workload"
)

// Re-exported core types. Aliases keep the internal packages private
// while making their values fully usable by external callers.
type (
	// Word is the 32-bit architectural machine word.
	Word = isa.Word
	// Inst is a decoded instruction.
	Inst = isa.Inst
	// Latencies configures instruction latencies.
	Latencies = isa.Latencies
	// Program is an assembled program with its symbol table.
	Program = asm.Program
	// Memory is word-addressed data memory.
	Memory = memory.Flat
	// Bandwidth is the paper's M(n) memory-bandwidth function.
	Bandwidth = memory.MFunc
	// RunResult is a simulation outcome: architectural state plus counters.
	RunResult = core.Result
	// Stats aggregates run counters.
	Stats = core.Stats
	// InstRecord is one retired instruction's timing.
	InstRecord = core.InstRecord
	// PhysicalModel summarizes a processor's VLSI complexity.
	PhysicalModel = vlsi.Model
	// Tech holds technology and cell-library parameters.
	Tech = vlsi.Tech
	// Predictor predicts conditional branch directions.
	Predictor = branch.Predictor
	// Workload is a runnable program plus its initial memory.
	Workload = workload.Workload
	// Tracer records pipeline events into a preallocated slab; build one
	// with NewTracer or NewRingTracer and attach it via WithTracer.
	Tracer = obs.Tracer
	// TraceEvent is one recorded pipeline event.
	TraceEvent = obs.Event
	// MetricsRegistry holds named counters, gauges and histograms with
	// periodic snapshots; attach one via WithMetrics.
	MetricsRegistry = obs.Registry
	// FaultPlan is a deterministic fault schedule; build one with
	// NewFaultPlan and attach it via WithFaultInjection.
	FaultPlan = fault.Plan
	// FaultSite names a microarchitectural fault site.
	FaultSite = fault.Site
	// FaultDetect selects the modeled fault-detection hardware.
	FaultDetect = fault.Detect
	// FaultLog records what happened during a faulted run: faults applied,
	// detections, recoveries and watchdog fires.
	FaultLog = fault.Log
	// FaultGenParams bounds random fault-plan generation.
	FaultGenParams = fault.GenParams
)

// Fault-injection constructors and constants, re-exported from
// internal/fault.
var (
	// NewFaultPlan generates a deterministic fault plan from a seed.
	NewFaultPlan = fault.NewPlan
	// DecodeFaultPlan parses a plan from its stable text encoding.
	DecodeFaultPlan = fault.DecodePlan
	// AllFaultSites returns every defined fault site.
	AllFaultSites = fault.AllSites
)

// The fault-detection modes.
const (
	// FaultDetectNone commits whatever the faulted datapath produced.
	FaultDetectNone = fault.DetectNone
	// FaultDetectParity models per-value parity checked at commit.
	FaultDetectParity = fault.DetectParity
	// FaultDetectGolden cross-checks every retiring instruction against
	// the in-order golden machine (DIVA-style) before it commits.
	FaultDetectGolden = fault.DetectGolden
)

// Tracer and metrics constructors, re-exported from internal/obs.
var (
	// NewTracer returns a tracer keeping the first capacity events.
	NewTracer = obs.NewTracer
	// NewRingTracer returns a flight-recorder tracer keeping the last
	// capacity events.
	NewRingTracer = obs.NewRingTracer
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
)

// Arch selects one of the paper's three processor architectures.
type Arch int

// The three compared architectures.
const (
	// UltraI is the Ultrascalar I: per-station refill, H-tree CSPP layout.
	UltraI Arch = iota
	// UltraII is the Ultrascalar II: batch refill, grid datapath.
	UltraII
	// Hybrid is the hybrid Ultrascalar: cluster refill, grids in an H-tree.
	Hybrid
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case UltraI:
		return "Ultrascalar I"
	case UltraII:
		return "Ultrascalar II"
	case Hybrid:
		return "Hybrid Ultrascalar"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Processor is a configured instance of one architecture.
type Processor struct {
	arch    Arch
	n       int // window / issue width
	c       int // hybrid cluster size
	l       int // logical registers
	w       int // bits per register (physical model)
	m       Bandwidth
	base    core.Config
	mode    vlsi.Ultra2Mode
	wrap    bool // Ultrascalar II wrap-around variant
	ctx     context.Context
	timeout time.Duration
}

// Option configures a Processor.
type Option func(*Processor) error

// WithClusterSize sets the hybrid's cluster size C (default min(L, n)).
func WithClusterSize(c int) Option {
	return func(p *Processor) error {
		if c < 1 {
			return fmt.Errorf("ultrascalar: cluster size must be >= 1")
		}
		p.c = c
		return nil
	}
}

// WithRegisters sets L, the number of logical registers (default 32).
func WithRegisters(l int) Option {
	return func(p *Processor) error {
		p.l = l
		p.base.NumRegs = l
		return nil
	}
}

// WithRegisterWidth sets W, the register width used by the physical model
// (default 32).
func WithRegisterWidth(w int) Option {
	return func(p *Processor) error {
		if w < 1 {
			return fmt.Errorf("ultrascalar: register width must be >= 1")
		}
		p.w = w
		return nil
	}
}

// WithBandwidth sets the memory-bandwidth function M(n) used by both the
// physical model and the fat-tree timing model (default M(n) = √n).
func WithBandwidth(m Bandwidth) Option {
	return func(p *Processor) error {
		p.m = m
		return nil
	}
}

// WithMemoryTiming enables the fat-tree/interleaved-cache timing model
// instead of fixed-latency memory.
func WithMemoryTiming() Option {
	return func(p *Processor) error {
		cfg := memory.DefaultConfig(p.n, p.m)
		p.base.MemSystem = memory.NewSystem(cfg)
		return nil
	}
}

// WithButterflyMemory routes memory accesses through a butterfly network
// instead of a fat tree — the paper's stated alternative interconnect
// ("via two fat-tree or butterfly networks"). Total bandwidth is n, but
// conflicting station→bank routes block inside the network.
func WithButterflyMemory() Option {
	return func(p *Processor) error {
		banks := p.m.Of(p.n)
		p.base.MemSystem = memory.NewButterfly(p.n, banks, 1, 2)
		return nil
	}
}

// WithClusterCaches enables the fat-tree timing model with a distributed
// per-cluster cache of the given line count (paper Section 7: "a cache
// distributed among the clusters"). The cluster size follows the
// processor's cluster size.
func WithClusterCaches(lines int) Option {
	return func(p *Processor) error {
		cfg := memory.DefaultConfig(p.n, p.m)
		cfg.ClusterSize = p.ClusterSize()
		cfg.ClusterLines = lines
		cfg.ClusterHitLatency = 1
		p.base.MemSystem = memory.NewSystem(cfg)
		return nil
	}
}

// WithSharedALUs limits the processor to a pool of n shared arithmetic
// units, allocated oldest first (paper Section 7; Ultrascalar Memo 2).
func WithSharedALUs(n int) Option {
	return func(p *Processor) error {
		if n < 1 {
			return fmt.Errorf("ultrascalar: shared ALU count must be >= 1")
		}
		p.base.NumALUs = n
		return nil
	}
}

// WithSelfTimedForwarding models the pipelined/self-timed datapath of the
// paper's Section 7: forwarding a value d instructions ahead costs
// latency(d) extra cycles. Pass nil for the default ceil(log2 d) shape.
func WithSelfTimedForwarding(latency func(d int) int) Option {
	return func(p *Processor) error {
		if latency == nil {
			latency = func(d int) int {
				if d <= 1 {
					return 0
				}
				extra := 0
				for 1<<extra < d {
					extra++
				}
				return extra
			}
		}
		p.base.ForwardLatency = latency
		return nil
	}
}

// WithMemoryRenaming enables store-to-load forwarding through the window
// (paper Section 7).
func WithMemoryRenaming() Option {
	return func(p *Processor) error {
		p.base.MemRenaming = true
		return nil
	}
}

// FetchModel selects the instruction-fetch mechanism.
type FetchModel = core.FetchModel

// The fetch models.
const (
	// FetchIdeal supplies the full fetch width along the predicted path.
	FetchIdeal = core.FetchIdeal
	// FetchBlock stops each cycle's fetch at the first taken transfer.
	FetchBlock = core.FetchBlock
	// FetchTrace backs block fetch with an instruction trace cache.
	FetchTrace = core.FetchTrace
)

// WithFetchModel selects the fetch mechanism (default FetchIdeal).
func WithFetchModel(fm FetchModel) Option {
	return func(p *Processor) error {
		p.base.Fetch = fm
		return nil
	}
}

// WithFetchWidth caps instructions fetched per cycle (default: the
// window size).
func WithFetchWidth(w int) Option {
	return func(p *Processor) error {
		if w < 1 {
			return fmt.Errorf("ultrascalar: fetch width must be >= 1")
		}
		p.base.FetchWidth = w
		return nil
	}
}

// WithReturnStack enables a return-address stack of the given depth: JAL
// pushes, JALR predicts by popping — perfect return prediction on
// well-nested code.
func WithReturnStack(depth int) Option {
	return func(p *Processor) error {
		if depth < 1 {
			return fmt.Errorf("ultrascalar: return stack depth must be >= 1")
		}
		p.base.ReturnStack = depth
		return nil
	}
}

// WithPredictor sets the branch predictor.
func WithPredictor(pr Predictor) Option {
	return func(p *Processor) error {
		p.base.Predictor = pr
		return nil
	}
}

// WithLatencies sets instruction latencies.
func WithLatencies(l Latencies) Option {
	return func(p *Processor) error {
		p.base.Lat = l
		return nil
	}
}

// WithInitialRegisters sets the initial committed register values.
func WithInitialRegisters(regs []Word) Option {
	return func(p *Processor) error {
		p.base.InitRegs = regs
		return nil
	}
}

// WithTimeline records per-instruction issue/completion cycles in results.
func WithTimeline() Option {
	return func(p *Processor) error {
		p.base.KeepTimeline = true
		return nil
	}
}

// WithMaxCycles bounds the simulation.
func WithMaxCycles(n int64) Option {
	return func(p *Processor) error {
		p.base.MaxCycles = n
		return nil
	}
}

// WithTracer attaches a pipeline event tracer: every fetch, issue,
// completion, retirement, squash and operand forward is recorded with
// its cycle, station and payload. Recording is allocation-free; with no
// tracer attached the engine's measured hot path is unchanged.
func WithTracer(t *Tracer) Option {
	return func(p *Processor) error {
		p.base.Tracer = t
		return nil
	}
}

// WithMetrics attaches a metrics registry snapshotted every `every`
// cycles (0 = the 1024-cycle default). The engine publishes occupancy,
// IPC and the fetch/retire/squash/mispredict counters.
func WithMetrics(r *MetricsRegistry, every int64) Option {
	return func(p *Processor) error {
		p.base.Metrics = r
		p.base.MetricsEvery = every
		return nil
	}
}

// WithFaultInjection arms deterministic fault injection: the plan's
// faults strike the simulated microarchitecture at their scheduled
// cycles, detect selects the modeled checker (parity or a golden
// cross-check; detected faults are repaired by squash-and-replay, so
// they cost cycles, not correctness), and log (optional) records the
// fault lifecycle. With no plan attached the engine's measured hot path
// is unchanged.
func WithFaultInjection(plan *FaultPlan, detect FaultDetect, log *FaultLog) Option {
	return func(p *Processor) error {
		p.base.FaultPlan = plan
		p.base.FaultDetect = detect
		p.base.FaultLog = log
		return nil
	}
}

// WithWatchdog sets the no-retire-progress watchdog threshold in cycles:
// a run that goes that long without retiring while provably unable to
// make progress fails with ErrLivelock (or triggers recovery during
// fault runs). The default is max(4×window, 64); negative disables.
func WithWatchdog(cycles int64) Option {
	return func(p *Processor) error {
		p.base.Watchdog = cycles
		return nil
	}
}

// ErrLivelock is returned (wrapped in a diagnostic snapshot) when the
// watchdog detects that retirement can no longer make progress.
var ErrLivelock = core.ErrLivelock

// LivelockError is the watchdog's diagnostic snapshot; errors.Is matches
// ErrLivelock and errors.As extracts the snapshot.
type LivelockError = core.LivelockError

// CanceledError is returned when a context-bounded run is abandoned:
// errors.Is matches context.Canceled or context.DeadlineExceeded, and
// errors.As extracts the cycle the cancellation was observed at.
type CanceledError = core.CanceledError

// WithContext bounds every Run by ctx: the engine probes the context
// once per watchdog interval from its per-cycle chain (nil-guarded and
// allocation-free, so the measured hot path is unchanged) and returns a
// *CanceledError once the context is canceled or past its deadline.
func WithContext(ctx context.Context) Option {
	return func(p *Processor) error {
		p.ctx = ctx
		return nil
	}
}

// WithDeadline bounds every Run to at most d of wall time, layered on
// top of any WithContext context. Each run gets its own timer, so a
// processor configured once can serve many requests.
func WithDeadline(d time.Duration) Option {
	return func(p *Processor) error {
		if d <= 0 {
			return fmt.Errorf("ultrascalar: deadline must be > 0, got %v", d)
		}
		p.timeout = d
		return nil
	}
}

// WithUltra2Mode selects the Ultrascalar II datapath implementation for
// the physical model: 0 linear (Figure 7), 1 mesh of trees (Figure 8),
// 2 mixed (Section 5). Default linear.
func WithUltra2Mode(mode int) Option {
	return func(p *Processor) error {
		if mode < 0 || mode > 2 {
			return fmt.Errorf("ultrascalar: bad Ultrascalar II mode %d", mode)
		}
		p.mode = vlsi.Ultra2Mode(mode)
		return nil
	}
}

// WithUltra2WrapAround selects the wrap-around Ultrascalar II variant the
// paper mentions in Section 4: stations refill individually like the
// Ultrascalar I, at "nearly a factor of two" in grid area.
func WithUltra2WrapAround() Option {
	return func(p *Processor) error {
		if p.arch != UltraII {
			return fmt.Errorf("ultrascalar: wrap-around applies to the Ultrascalar II only")
		}
		p.wrap = true
		return nil
	}
}

// New builds a processor of the given architecture with an n-station
// window.
func New(arch Arch, n int, opts ...Option) (*Processor, error) {
	if n < 1 {
		return nil, fmt.Errorf("ultrascalar: window must be >= 1, got %d", n)
	}
	p := &Processor{arch: arch, n: n, l: isa.NumRegs, w: 32, m: memory.MPow(1, 0.5)}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	if p.c == 0 {
		p.c = p.l
		if p.c > n {
			p.c = n
		}
	}
	if arch == Hybrid && n%p.c != 0 {
		return nil, fmt.Errorf("ultrascalar: cluster size %d must divide window %d", p.c, n)
	}
	return p, nil
}

// Arch returns the processor's architecture.
func (p *Processor) Arch() Arch { return p.arch }

// Window returns n, the station count.
func (p *Processor) Window() int { return p.n }

// ClusterSize returns the hybrid cluster size (n for UltraII, 1 for
// UltraI).
func (p *Processor) ClusterSize() int {
	switch p.arch {
	case UltraI:
		return 1
	case UltraII:
		if p.wrap {
			return 1 // the wrap-around variant refills per station
		}
		return p.n
	default:
		return p.c
	}
}

// Run executes prog against mem (mutated in place), bounded by any
// WithContext context and WithDeadline timeout.
func (p *Processor) Run(prog []Inst, mem *Memory) (*RunResult, error) {
	return p.RunCtx(p.ctx, prog, mem)
}

// RunCtx is Run bounded by an explicit per-call context (overriding any
// WithContext option; the WithDeadline timeout still applies on top).
// When the context is canceled or its deadline passes, the run is
// abandoned within one watchdog interval and a *CanceledError is
// returned.
func (p *Processor) RunCtx(ctx context.Context, prog []Inst, mem *Memory) (*RunResult, error) {
	cfg := p.base
	cfg.Window = p.n
	cfg.Granularity = p.ClusterSize()
	if p.timeout > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, p.timeout)
		defer cancel()
	}
	return core.RunCtx(ctx, prog, mem, cfg)
}

// Physical returns the processor's VLSI model under the technology t.
func (p *Processor) Physical(t Tech) (*PhysicalModel, error) {
	switch p.arch {
	case UltraI:
		return vlsi.UltraIModel(p.n, p.l, p.w, p.m, t, vlsi.UltraIOptions{})
	case UltraII:
		if p.wrap {
			return vlsi.Ultra2WrapModel(p.n, p.l, p.w, p.m, t, p.mode)
		}
		return vlsi.Ultra2Model(p.n, p.l, p.w, p.m, t, p.mode)
	default:
		return vlsi.HybridModel(p.n, p.c, p.l, p.w, p.m, t, vlsi.Ultra2Linear)
	}
}

// GateLevelResult is the outcome of a gate-level run.
type GateLevelResult = gatesim.Result

// RunGateLevel executes prog on a gate-level implementation of the
// architecture: register forwarding and sequencing are computed by
// evaluating the generated CSPP/grid netlists every cycle (see
// internal/gatesim). c is the hybrid cluster size (ignored otherwise).
// Gate-level runs follow the architectural path (no speculation) and use
// fixed-latency memory; they exist for validation, not performance
// modeling.
func RunGateLevel(arch Arch, prog []Inst, mem *Memory, n, c int) (*GateLevelResult, error) {
	switch arch {
	case UltraI:
		return gatesim.Run(prog, mem, gatesim.Config{Window: n, NumRegs: isa.NumRegs, Width: 32})
	case UltraII:
		return gatesim.RunUltra2(prog, mem, gatesim.Config{Window: n, NumRegs: isa.NumRegs, Width: 32})
	case Hybrid:
		return gatesim.RunHybrid(prog, mem, gatesim.HybridConfig{
			Window: n, Cluster: c, NumRegs: isa.NumRegs, Width: 32,
		})
	default:
		return nil, fmt.Errorf("ultrascalar: unknown architecture %v", arch)
	}
}

// Assemble translates assembler source into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders instructions as assembler source.
func Disassemble(prog []Inst) string { return asm.Disassemble(prog) }

// NewMemory returns empty data memory.
func NewMemory() *Memory { return memory.NewFlat() }

// Reference runs prog on the golden sequential interpreter and returns
// the final register file and memory. All simulators produce identical
// architectural results.
func Reference(prog []Inst, mem *Memory) ([]Word, error) {
	res, err := ref.Run(prog, mem, ref.Config{})
	if err != nil {
		return nil, err
	}
	return res.Regs, nil
}

// DefaultTech returns the paper's 0.35 µm, three-metal-layer technology.
func DefaultTech() Tech { return vlsi.Tech035() }

// DefaultLatencies returns the paper's Figure 3 latencies (add 1, mul 3,
// div 10).
func DefaultLatencies() Latencies { return isa.DefaultLatencies() }

// ConstBandwidth returns M(n) = c.
func ConstBandwidth(c int) Bandwidth { return memory.MConst(c) }

// PowerBandwidth returns M(n) = c·n^p.
func PowerBandwidth(c, p float64) Bandwidth { return memory.MPow(c, p) }

// LinearBandwidth returns M(n) = n.
func LinearBandwidth() Bandwidth { return memory.MLinear() }

// Kernels returns the built-in benchmark kernel suite.
func Kernels() []Workload { return workload.Kernels() }

// ExtendedKernels returns the broadened workload suite (search, checksum,
// sieve, array kernels and synthetic fetch/cache stressors).
func ExtendedKernels() []Workload { return workload.ExtendedKernels() }

// Bimodal returns a 2-bit-counter branch predictor with 2^bits entries.
func Bimodal(bits int) Predictor { return branch.Bimodal(bits) }

// GShare returns a gshare branch predictor.
func GShare(bits, hbits int) Predictor { return branch.GShare(bits, hbits) }

// StaticPredictor returns an always-taken or always-not-taken predictor.
func StaticPredictor(taken bool) Predictor { return branch.Static(taken) }

// TournamentPredictor returns a chooser-based combination of two
// predictors (McFarling-style).
func TournamentPredictor(a, b Predictor, bits int) Predictor {
	return branch.Tournament(a, b, bits)
}
