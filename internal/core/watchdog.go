package core

// The no-retire-progress watchdog. A healthy window always makes
// progress: an issued instruction finishes in bounded time, a ready
// instruction issues, and fetch refills free slots. The only steady
// states with no retirement are genuine deadlocks — an unready head whose
// operands can never arrive (a stuck-at-0 fault, a latency model driven
// to infinity) with fetch blocked by the full ring. Rather than spin to
// MaxCycles, Run detects that state after Config.Watchdog quiet cycles
// and either triggers fault recovery (injection runs) or returns a
// LivelockError snapshot.

// livelocked reports whether the engine can make no further progress:
// nothing is executing, nothing is ready to issue, and fetch cannot
// supply new work. It is deliberately conservative — any in-flight
// instruction, pending heal sweep (fwdDirty), or fetchable slot counts as
// potential progress — so it cannot fire on a slow-but-live window. The
// per-station conditions reduce to two word expressions over the station
// bitmaps: started &^ finished (will complete) and busy &^ started &
// ready (will issue).
func (e *engine) livelocked() bool {
	if e.fwdDirty {
		return false // producer state changed; readiness may improve at the next forward
	}
	st := &e.st
	var spans [2][2]int
	spans[0][0], spans[0][1], spans[1][0], spans[1][1] = e.liveSpans()
	for _, sp := range spans {
		for w := sp[0] >> 6; w <= (sp[1]-1)>>6; w++ {
			m := spanMask(sp[0], sp[1], w)
			if st.started[w]&^e.finishedWord(w)&m != 0 {
				return false // executing or awaiting memory: will complete
			}
			if st.busy[w]&^st.started[w]&st.ready[w]&m != 0 {
				return false // will issue (or be granted memory) in a coming cycle
			}
		}
	}
	if e.occ < e.cfg.Window && !e.haltStop && !e.jalrWait &&
		e.fetchPC >= 0 && e.fetchPC < len(e.prog) {
		slot := int(e.nextSeq % int64(e.cfg.Window))
		if !st.busy.get(slot) && !st.drained.get(slot) {
			return false // fetch can still inject new work
		}
	}
	return true
}

// livelockError builds the watchdog's diagnostic snapshot.
func (e *engine) livelockError() error {
	le := &LivelockError{
		Cycle:      e.cycle,
		LastRetire: e.lastRetire,
		FetchPC:    e.fetchPC,
		HeadPC:     -1,
		HeadSeq:    -1,
		Occupied:   e.occ,
		Window:     e.cfg.Window,
	}
	st := &e.st
	if e.occ > 0 {
		h := e.slotAt(0)
		le.HeadPC, le.HeadSeq = int(st.pc[h]), st.seq[h]
	}
	for i := 0; i < e.occ; i++ {
		s := e.slotAt(i)
		started := st.started.get(s)
		switch {
		case started && !e.finishedSlot(s):
			le.Started++
		case started:
			le.Finished++
		case st.ready.get(s):
			le.Ready++
		}
	}
	return le
}
