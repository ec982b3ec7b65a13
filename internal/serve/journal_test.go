package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// journalPath is the job journal of a state dir.
func journalPath(dir string) string { return filepath.Join(dir, "jobs", journalName) }

// journalRecords reads a state dir's journal as raw records, each
// with its newline.
func journalRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end in a complete record: %q", data)
	}
	recs := bytes.SplitAfter(data, []byte("\n"))
	return recs[:len(recs)-1] // the empty remainder after the last newline
}

// decodeRecord decodes one journal record.
func decodeRecord(t *testing.T, rec []byte) Job {
	t.Helper()
	var job Job
	if err := json.Unmarshal(rec, &job); err != nil {
		t.Fatalf("journal record %q: %v", rec, err)
	}
	return job
}

// drainNow drains a manager, failing the test if it takes too long.
func drainNow(m *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Drain(ctx)
}

// copyDir copies the regular files of one directory into another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// requireNoStaleCheckpoints fails t if a checkpoint in dir belongs to a
// job m holds as done, failed or canceled, or to no job at all.
func requireNoStaleCheckpoints(t *testing.T, m *Manager, dir string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		id := strings.TrimSuffix(e.Name(), ".ckpt")
		job, serr := m.Get(id)
		if serr != nil {
			t.Errorf("checkpoint %s outlives its job: %v", e.Name(), serr)
			continue
		}
		switch job.State {
		case StateDone, StateFailed, StateCanceled:
			// A job that finished after ReadDir removed its checkpoint
			// under the lock Get took, so the file must be gone now.
			if _, err := os.Stat(filepath.Join(dir, "checkpoints", e.Name())); err == nil {
				t.Errorf("checkpoint %s outlives %s's terminal record (%s)", e.Name(), id, job.State)
			}
		}
	}
}

// crashScriptRequests are the fixed script's jobs, in submit order:
// a campaign, a sim, a sweep, and a second sim that is canceled while
// queued (same request as the first, so its report, when a crash
// state leaves it queued and it runs, must equal the first one's).
var crashScriptRequests = []JobRequest{
	{Kind: "campaign", Window: 2, Trials: 1, Seed: 3},
	{Kind: "sim", Arch: "ultra1", Window: 8, Workload: "fib"},
	{Kind: "sweep", Window: 4},
	{Kind: "sim", Arch: "ultra1", Window: 8, Workload: "fib"},
}

// runCrashScript runs the script once, crash-free, with one worker
// held at a gate so every journal append lands in a fixed order. It
// returns the state dir and each job's final state.
func runCrashScript(t *testing.T) (string, map[string]*Job) {
	t.Helper()
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		<-gate
		res, err := m.compute(ctx, job, job.Request)
		return res.report, err
	}
	submit := func(req JobRequest) string {
		job, serr := m.Submit(req)
		if serr != nil {
			t.Fatalf("Submit: %v", serr)
		}
		return job.ID
	}
	campaign := submit(crashScriptRequests[0])
	waitState(t, m, campaign, StateRunning)
	for _, req := range crashScriptRequests[1:] {
		submit(req)
	}
	if _, serr := m.Cancel("job-000004"); serr != nil {
		t.Fatalf("Cancel: %v", serr)
	}
	close(gate)
	final := map[string]*Job{}
	for i := range crashScriptRequests {
		id := fmt.Sprintf("job-%06d", i+1)
		final[id] = waitState(t, m, id, StateDone, StateCanceled)
	}
	drainNow(m)
	return dir, final
}

// TestJournalCrashAtEveryAppend is the crash-point oracle for job
// records. A crash at any point leaves the journal holding a prefix of
// the crash-free run's records, possibly followed by a torn part of
// the next one. For every such state it opens a fresh Manager and
// checks the crash contract: every acknowledged job exists exactly
// once, the ID sequence continues, jobs left running are re-queued and
// rerun, and every finished report is byte-identical to the crash-free
// run's.
func TestJournalCrashAtEveryAppend(t *testing.T) {
	refDir, ref := runCrashScript(t)
	recs := journalRecords(t, refDir)
	// Submit ×4, campaign start, cancel, then start and finish of the
	// campaign, the sweep and the first sim, in that order.
	wantStates := []string{
		StateQueued, StateRunning, StateQueued, StateQueued, StateQueued, StateCanceled,
		StateDone, StateRunning, StateDone, StateRunning, StateDone,
	}
	if len(recs) != len(wantStates) {
		t.Fatalf("crash-free run appended %d records, want %d", len(recs), len(wantStates))
	}
	for i, rec := range recs {
		if got := decodeRecord(t, rec).State; got != wantStates[i] {
			t.Fatalf("record %d state %q, want %q", i+1, got, wantStates[i])
		}
	}
	wantReport := func(id string) string {
		if id == "job-000004" { // canceled in the reference run
			id = "job-000002"
		}
		return ref[id].Report
	}

	for k := 0; k <= len(recs); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(recs) {
				continue
			}
			t.Run(fmt.Sprintf("after-%d-torn=%v", k, torn), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
					t.Fatal(err)
				}
				data := bytes.Join(recs[:k], nil)
				if torn {
					data = append(data, recs[k][:len(recs[k])/2]...)
				}
				if err := os.WriteFile(journalPath(dir), data, 0o644); err != nil {
					t.Fatal(err)
				}
				// The campaign's shard checkpoints exist once it finished.
				if k >= 7 {
					copyDir(t, filepath.Join(refDir, "checkpoints"), filepath.Join(dir, "checkpoints"))
				}
				last := map[string]Job{} // acknowledged jobs, by their last record
				for _, rec := range recs[:k] {
					job := decodeRecord(t, rec)
					last[job.ID] = job
				}
				// A finished campaign's checkpoint can outlive its terminal
				// record: a crash between the append and the remove, or a
				// binary that never removed it, leaves one behind.
				if c := last["job-000001"]; c.State == StateDone {
					if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, "checkpoints", "job-000001.ckpt"), []byte("stale\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}

				m, err := New(Config{Dir: dir, Workers: 2})
				if err != nil {
					t.Fatalf("New after crash: %v", err)
				}
				defer drainNow(m)
				requireNoStaleCheckpoints(t, m, dir)
				jobs := m.List()
				if len(jobs) != len(last) {
					t.Fatalf("recovered %d jobs, want the %d acknowledged", len(jobs), len(last))
				}
				for i, job := range jobs {
					if want := fmt.Sprintf("job-%06d", i+1); job.ID != want {
						t.Fatalf("recovered job %d is %s, want %s", i, job.ID, want)
					}
				}
				next, serr := m.Submit(crashScriptRequests[1])
				if serr != nil {
					t.Fatalf("Submit after recovery: %v", serr)
				}
				if want := fmt.Sprintf("job-%06d", len(last)+1); next.ID != want {
					t.Fatalf("next ID %s, want %s", next.ID, want)
				}
				for id, rec := range last {
					got := waitState(t, m, id, StateDone, StateCanceled)
					switch rec.State {
					case StateCanceled, StateDone:
						if got.State != rec.State || got.Attempts != rec.Attempts {
							t.Errorf("%s: recovered %s attempt %d, journal said %s attempt %d",
								id, got.State, got.Attempts, rec.State, rec.Attempts)
						}
					default: // queued or running: rerun once more
						if got.State != StateDone || got.Attempts != rec.Attempts+1 {
							t.Errorf("%s: left %s at attempt %d, now %s attempt %d; want rerun to done",
								id, rec.State, rec.Attempts, got.State, got.Attempts)
						}
					}
					if got.State == StateDone && got.Report != wantReport(id) {
						t.Errorf("%s: report differs from the crash-free run:\n%s\nvs\n%s", id, got.Report, wantReport(id))
					}
				}
				if got := waitState(t, m, next.ID, StateDone); got.Report != ref["job-000002"].Report {
					t.Errorf("post-recovery sim report differs from the crash-free run")
				}

				// Everything the recovered manager finished is durable too.
				before := m.List()
				drainNow(m)
				m2, err := New(Config{Dir: dir, Workers: 1})
				if err != nil {
					t.Fatalf("second restart: %v", err)
				}
				defer drainNow(m2)
				requireNoStaleCheckpoints(t, m2, dir)
				after := m2.List()
				if len(after) != len(before) {
					t.Fatalf("second restart has %d jobs, want %d", len(after), len(before))
				}
				for i := range before {
					if after[i].ID != before[i].ID || after[i].State != before[i].State || after[i].Report != before[i].Report {
						t.Errorf("%s: %s before restart, %s after", before[i].ID, before[i].State, after[i].State)
					}
				}
			})
		}
	}
}

// TestStartTouchesNoDiskOnEmptyDir: starting on an empty state dir
// creates no journal and leaves Dir/jobs empty; the first submit
// creates the journal with exactly its record.
func TestStartTouchesNoDiskOnEmptyDir(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	ents, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil || len(ents) != 0 {
		t.Fatalf("Dir/jobs after start: %d entries, err %v; want empty", len(ents), err)
	}
	job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatal(serr)
	}
	recs := journalRecords(t, dir)
	if first := decodeRecord(t, recs[0]); first.ID != job.ID || first.State != StateQueued {
		t.Fatalf("first record %+v, want %s queued", first, job.ID)
	}
}

// TestJournalCompactedAtStartOnly: a journal with several records per
// job is rewritten at start to one record per job in ID order, each
// the job's last state; a journal already compact is left untouched.
func TestJournalCompactedAtStartOnly(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		job, serr := m1.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
		if serr != nil {
			t.Fatal(serr)
		}
		waitState(t, m1, job.ID, StateDone)
	}
	drainNow(m1)
	if n := len(journalRecords(t, dir)); n != 9 {
		t.Fatalf("journal holds %d records after drain, want 9 (drain must not compact)", n)
	}

	m2, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainNow(m2)
	recs := journalRecords(t, dir)
	if len(recs) != 3 {
		t.Fatalf("compacted journal holds %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		job := decodeRecord(t, rec)
		if want := fmt.Sprintf("job-%06d", i+1); job.ID != want || job.State != StateDone || job.Report == "" {
			t.Fatalf("compacted record %d: %s %s, want %s done with its report", i, job.ID, job.State, want)
		}
	}
	compacted, _ := os.ReadFile(journalPath(dir))
	m3, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainNow(m3)
	if again, _ := os.ReadFile(journalPath(dir)); !bytes.Equal(again, compacted) {
		t.Fatal("a compact journal was rewritten at start")
	}
}

// TestJournalTornTailDropped: a final record cut short by a crash, or
// one that no longer decodes, was never acknowledged. Start drops it,
// cuts the file back, and appends continue after the good records.
func TestJournalTornTailDropped(t *testing.T) {
	for _, tail := range []string{`{"id":"job-000002","requ`, "{\"id\":\n"} {
		dir := t.TempDir()
		m1, err := New(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		job, serr := m1.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
		if serr != nil {
			t.Fatal(serr)
		}
		waitState(t, m1, job.ID, StateDone)
		drainNow(m1)
		good, _ := os.ReadFile(journalPath(dir))
		if err := os.WriteFile(journalPath(dir), append(good, tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		m2 := newTestManager(t, Config{Dir: dir, Workers: 1})
		if jobs := m2.List(); len(jobs) != 1 || jobs[0].State != StateDone {
			t.Fatalf("tail %q: recovered %d jobs, want job-000001 done", tail, len(jobs))
		}
		// Start compacted the three records of job-000001 to one.
		recs := journalRecords(t, dir)
		if len(recs) != 1 {
			t.Fatalf("tail %q: journal holds %d records after start, want 1", tail, len(recs))
		}
		next, serr := m2.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
		if serr != nil || next.ID != "job-000002" {
			t.Fatalf("tail %q: next submit %v %v, want job-000002", tail, next, serr)
		}
		if got := decodeRecord(t, journalRecords(t, dir)[1]); got.ID != "job-000002" {
			t.Fatalf("tail %q: appended record is %s", tail, got.ID)
		}
	}
}

// TestJournalCorruptMiddleRecordFailsStart: a bad record before the
// last is corruption, not a torn tail, and start fails loudly, as a
// corrupt legacy record file does.
func TestJournalCorruptMiddleRecordFailsStart(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	data := `{"id":"job-000001","request":{"kind":"sim","arch":"ultra1","window":4,"workload":"fib"},"state":"queued","attempts":0}
not a job record
{"id":"job-000002","request":{"kind":"sim","arch":"ultra1","window":4,"workload":"fib"},"state":"queued","attempts":0}
`
	if err := os.WriteFile(journalPath(dir), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "corrupt job journal") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("New = %v, want a corrupt-journal error at line 2", err)
	}
	if got, _ := os.ReadFile(journalPath(dir)); string(got) != data {
		t.Fatal("a failed start modified the journal")
	}
}

// TestLegacyRecordsThenJournal: legacy per-job record files are read
// first and the journal's records override them, so a state dir an
// older binary wrote and a newer one appended to recovers to the
// newest state of every job.
func TestLegacyRecordsThenJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := `{"id":"job-000001","request":{"kind":"sim","arch":"ultra1","window":4,"workload":"fib"},"state":"queued","attempts":0}`
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-000001.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := `{"id":"job-000001","request":{"kind":"sim","arch":"ultra1","window":4,"workload":"fib"},"state":"done","report":"from the journal\n","attempts":1}
`
	if err := os.WriteFile(journalPath(dir), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Dir: dir})
	job, serr := m.Get("job-000001")
	if serr != nil || job.State != StateDone || job.Report != "from the journal\n" {
		t.Fatalf("job-000001 = %+v, %v; want the journal's done record", job, serr)
	}
}
