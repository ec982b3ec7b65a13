package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Exporters. Two formats:
//
//   - JSONL: one JSON object per line — a manifest record first, then
//     one record per event. Compact, streamable, byte-deterministic for
//     a given run, and the format the golden-trace tests pin.
//   - Chrome trace-event JSON: loadable in Perfetto (ui.perfetto.dev)
//     or chrome://tracing. Execution stations are tracks (tid = slot),
//     instructions are duration slices [issue, exec), squashes are
//     instant events. One simulation cycle maps to one microsecond-unit
//     tick of the trace clock.

// jsonlRecord is the wire form of one JSONL line. Type is "manifest" for
// the header line and "event" for event lines; exactly one of Manifest
// and the event fields is populated.
type jsonlRecord struct {
	Type     string    `json:"type"`
	Manifest *Manifest `json:"manifest,omitempty"`
	Kind     string    `json:"kind,omitempty"`
	Cycle    int64     `json:"cycle,omitempty"`
	Seq      int64     `json:"seq,omitempty"`
	PC       int32     `json:"pc,omitempty"`
	Slot     int32     `json:"slot,omitempty"`
	Arg      int32     `json:"arg,omitempty"`
}

// WriteJSONL writes the manifest followed by one line per event.
func WriteJSONL(w io.Writer, man Manifest, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlRecord{Type: "manifest", Manifest: &man}); err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	for _, ev := range events {
		rec := jsonlRecord{
			Type: "event", Kind: ev.Kind.String(),
			Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Slot: ev.Slot, Arg: ev.Arg,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: encoding event: %w", err)
		}
	}
	return bw.Flush()
}

// MaxLineBytes bounds one line of any JSONL artifact this tree reads:
// traces, metrics snapshots, campaign checkpoints, progress streams.
// bufio.Scanner's default cap is 64 KiB, which large campaign
// checkpoint records overflow — the scanner then fails with "token too
// long" and a perfectly good file becomes unreadable. 64 MiB is far
// above any record we emit while still bounding a corrupt (newline-
// free) file's memory cost.
const MaxLineBytes = 1 << 26

// NewLineScanner returns a line scanner whose buffer admits lines up to
// MaxLineBytes. Every bufio.Scanner over checkpoint/metrics/trace JSONL
// in this tree must come from here, so the line-length ceiling is one
// constant rather than a scattering of per-call-site defaults.
func NewLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), MaxLineBytes)
	return sc
}

// ReadJSONL parses a stream written by WriteJSONL. A missing manifest
// line is tolerated (the zero Manifest is returned) so hand-built event
// streams remain loadable.
func ReadJSONL(r io.Reader) (Manifest, []Event, error) {
	var man Manifest
	var events []Event
	sc := NewLineScanner(r)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return man, nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		switch rec.Type {
		case "manifest":
			if rec.Manifest != nil {
				man = *rec.Manifest
			}
		case "event":
			k, ok := KindFromString(rec.Kind)
			if !ok {
				return man, nil, fmt.Errorf("obs: line %d: unknown event kind %q", line, rec.Kind)
			}
			events = append(events, Event{
				Cycle: rec.Cycle, Seq: rec.Seq, Kind: k,
				PC: rec.PC, Slot: rec.Slot, Arg: rec.Arg,
			})
		default:
			return man, nil, fmt.Errorf("obs: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stops mid-stream (oversized line, read error)
		// without having surfaced a line: the failure is on the line
		// after the last one it delivered.
		return man, nil, fmt.Errorf("obs: line %d: reading trace: %w", line+1, err)
	}
	return man, events, nil
}

// TraceEvent is one Chrome trace-event record. Phases used: "M"
// (metadata), "X" (complete/duration), "i" (instant).
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeDoc is the top-level trace-event JSON object. Both the pipeline
// exporter here and the serve span exporter in internal/obs/log build
// one and write it with WriteChromeDoc, so ValidateChromeTrace covers
// both.
type ChromeDoc struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// WriteChromeDoc writes doc as indented JSON plus a trailing newline.
func WriteChromeDoc(w io.Writer, doc ChromeDoc) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// instSlices pairs up per-instruction events for the slice view.
type instSlice struct {
	seq                       int64
	pc, slot                  int32
	fetch, issue, exec, retir int64 // -1 = not seen
	dists                     []int32
	squashedBy                int32 // squashing branch PC, -1 if not squashed
}

// WriteChromeTrace converts events to Chrome trace-event JSON. name
// renders an instruction for display from its PC (nil falls back to
// "pc N"). Stations appear as threads of one "ultrascalar" process,
// ordered by slot; each instruction is a complete event spanning
// [issue, exec) (fetch cycle, retire cycle and operand producer
// distances ride along in args); squashes are instant events on the
// squashed station's track.
func WriteChromeTrace(w io.Writer, man Manifest, events []Event, name func(pc int32) string) error {
	if name == nil {
		if len(man.Prog) > 0 {
			prog := man.Prog
			name = func(pc int32) string {
				if int(pc) < len(prog) && pc >= 0 {
					return prog[pc]
				}
				return fmt.Sprintf("pc %d", pc)
			}
		} else {
			name = func(pc int32) string { return fmt.Sprintf("pc %d", pc) }
		}
	}

	slices := make(map[int64]*instSlice)
	order := []int64{}
	slots := make(map[int32]bool)
	for _, ev := range events {
		slots[ev.Slot] = true
		sl := slices[ev.Seq]
		if sl == nil {
			sl = &instSlice{seq: ev.Seq, pc: ev.PC, slot: ev.Slot,
				fetch: -1, issue: -1, exec: -1, retir: -1, squashedBy: -1}
			slices[ev.Seq] = sl
			order = append(order, ev.Seq)
		}
		switch ev.Kind {
		case EvFetch:
			sl.fetch = ev.Cycle
		case EvIssue:
			sl.issue = ev.Cycle
		case EvExec:
			sl.exec = ev.Cycle
		case EvRetire:
			sl.retir = ev.Cycle
		case EvSquash:
			sl.squashedBy = ev.Arg
		case EvForward:
			sl.dists = append(sl.dists, ev.Arg)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	doc := ChromeDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"manifest":   man,
			"clock_note": "1 trace tick (us) = 1 simulated cycle",
		},
		TraceEvents: []TraceEvent{{
			Name: "process_name", Ph: "M", Pid: 0,
			Args: map[string]any{"name": "ultrascalar"},
		}},
	}
	sortedSlots := make([]int32, 0, len(slots))
	for s := range slots {
		sortedSlots = append(sortedSlots, s) //uslint:allow detorder -- keys are sorted on the next line; collection order cannot reach the output
	}
	sort.Slice(sortedSlots, func(i, j int) bool { return sortedSlots[i] < sortedSlots[j] })
	for _, s := range sortedSlots {
		doc.TraceEvents = append(doc.TraceEvents,
			TraceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: s,
				Args: map[string]any{"name": fmt.Sprintf("station %d", s)}},
			TraceEvent{Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: s,
				Args: map[string]any{"sort_index": s}})
	}

	for _, seq := range order {
		sl := slices[seq]
		start := sl.issue
		if start < 0 {
			start = sl.fetch
		}
		if start < 0 {
			continue // squash-only record of an instruction fetched pre-trace
		}
		end := sl.exec
		if end < start {
			end = start + 1
		}
		args := map[string]any{"seq": sl.seq, "pc": sl.pc}
		if sl.fetch >= 0 {
			args["fetch_cycle"] = sl.fetch
		}
		if sl.retir >= 0 {
			args["retire_cycle"] = sl.retir
		}
		if len(sl.dists) > 0 {
			args["src_dist"] = sl.dists
		}
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: name(sl.pc), Ph: "X", Ts: start, Dur: end - start,
			Pid: 0, Tid: sl.slot, Args: args,
		})
	}
	for _, ev := range events {
		switch ev.Kind {
		case EvSquash:
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: "squash", Ph: "i", Ts: ev.Cycle, Pid: 0, Tid: ev.Slot, S: "t",
				Args: map[string]any{"seq": ev.Seq, "pc": ev.PC, "by_pc": ev.Arg},
			})
		case EvFaultInject, EvFaultDetect, EvFaultRecover:
			// Fault lifecycle shows up as process-scoped instants so a
			// campaign trace makes the inject → detect → recover story
			// visible at a glance.
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle, Pid: 0, Tid: ev.Slot, S: "p",
				Args: map[string]any{"seq": ev.Seq, "pc": ev.PC, "arg": ev.Arg},
			})
		}
	}

	return WriteChromeDoc(w, doc)
}

// ValidateChromeTrace checks data against the trace-event format
// contract this package emits: a traceEvents array whose entries all
// have a name, a known phase, a pid/tid, non-negative timestamps on
// timed phases, and non-negative durations on complete events.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		var ph, name string
		if err := requireString(ev, "ph", &ph); err != nil {
			return fmt.Errorf("obs: traceEvents[%d]: %w", i, err)
		}
		if err := requireString(ev, "name", &name); err != nil {
			return fmt.Errorf("obs: traceEvents[%d]: %w", i, err)
		}
		switch ph {
		case "M":
			// metadata carries no timestamp
		case "X", "i":
			var ts float64
			if err := requireNumber(ev, "ts", &ts); err != nil {
				return fmt.Errorf("obs: traceEvents[%d] (%s): %w", i, name, err)
			}
			if ts < 0 {
				return fmt.Errorf("obs: traceEvents[%d] (%s): negative ts %v", i, name, ts)
			}
			if ph == "X" {
				var dur float64
				if raw, ok := ev["dur"]; ok {
					if err := json.Unmarshal(raw, &dur); err != nil || dur < 0 {
						return fmt.Errorf("obs: traceEvents[%d] (%s): bad dur %s", i, name, raw)
					}
				}
			}
		default:
			return fmt.Errorf("obs: traceEvents[%d] (%s): unsupported phase %q", i, name, ph)
		}
		if _, ok := ev["pid"]; !ok {
			return fmt.Errorf("obs: traceEvents[%d] (%s): missing pid", i, name)
		}
		if _, ok := ev["tid"]; !ok && ph != "M" {
			return fmt.Errorf("obs: traceEvents[%d] (%s): missing tid", i, name)
		}
	}
	return nil
}

func requireString(ev map[string]json.RawMessage, key string, dst *string) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("%q is not a string: %w", key, err)
	}
	return nil
}

func requireNumber(ev map[string]json.RawMessage, key string, dst *float64) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil || math.IsNaN(*dst) {
		return fmt.Errorf("%q is not a number", key)
	}
	return nil
}
