package atomicio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// replay opens the journal at path and returns its records; fn-level
// rejection is left to the callers that test it.
func replay(t *testing.T, path string) (*Journal, []string) {
	t.Helper()
	var recs []string
	j, err := OpenJournal(path, 0o644, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

// appendAll appends each record and fails the test on any error.
func appendAll(t *testing.T, j *Journal, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

// assertFile fails the test unless the file holds exactly want.
func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
}

// TestJournalOpenCreatesNothing: opening a missing journal touches no
// disk; the first append creates the file.
func TestJournalOpenCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, recs := replay(t, path)
	if len(recs) != 0 {
		t.Fatalf("missing journal replayed %q", recs)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("OpenJournal created %d entries", len(ents))
	}
	appendAll(t, j, "a", "bb")
	assertFile(t, path, "a\nbb\n")
}

// TestJournalReplayAfterReopen: records appended by one handle replay
// in order through the next, and appends continue after them.
func TestJournalReplayAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := replay(t, path)
	appendAll(t, j, "one", "two")
	j.Close()
	j2, recs := replay(t, path)
	if strings.Join(recs, ",") != "one,two" {
		t.Fatalf("replayed %q", recs)
	}
	appendAll(t, j2, "three")
	assertFile(t, path, "one\ntwo\nthree\n")
}

// TestJournalCrashStages aborts an append at each stage boundary. The
// aborted record was never acknowledged, so the file must hold exactly
// the acknowledged records, and the next append must follow them.
func TestJournalCrashStages(t *testing.T) {
	for _, stage := range []string{crashAfterAppend, crashAfterAppendSync} {
		t.Run(stage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, _ := replay(t, path)
			appendAll(t, j, "ack-1", "ack-2")
			crashAt(t, stage)
			if err := j.Append([]byte("lost-record")); !errors.Is(err, errSimCrash) {
				t.Fatalf("err = %v, want simulated crash", err)
			}
			assertFile(t, path, "ack-1\nack-2\n")
			testCrash = nil
			appendAll(t, j, "ack-3")
			_, recs := replay(t, path)
			if strings.Join(recs, ",") != "ack-1,ack-2,ack-3" {
				t.Fatalf("replayed %q", recs)
			}
		})
	}
}

// TestJournalFailuresCutBack injects each disk failure into an append:
// the error is a typed *Error naming the stage and unwrapping to the
// syscall error, the file holds exactly the acknowledged records (no
// half record from the ENOSPC short write), and the next append works.
func TestJournalFailuresCutBack(t *testing.T) {
	cases := []struct {
		name   string
		faults Faults
		op     string
		sysErr error
	}{
		{"enospc-mid-record", Faults{WriteENOSPCEvery: 2}, OpWrite, syscall.ENOSPC},
		{"fsync-eio", Faults{SyncFailEvery: 2}, OpSync, syscall.EIO},
		// The only directory fsync is the first append's.
		{"dir-fsync-eio", Faults{DirSyncFailEvery: 1}, OpSyncDir, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, _ := replay(t, path)
			SetFaults(tc.faults)
			t.Cleanup(func() { SetFaults(Faults{}) })
			want := ""
			if tc.op != OpSyncDir {
				appendAll(t, j, "acknowledged")
				want = "acknowledged\n"
			}
			err := j.Append([]byte("a record that fails part way"))
			var aerr *Error
			if !errors.As(err, &aerr) || aerr.Op != tc.op || aerr.Path != path {
				t.Fatalf("err = %v, want *Error with Op %q on %s", err, tc.op, path)
			}
			if !errors.Is(err, tc.sysErr) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.sysErr)
			}
			assertFile(t, path, want)
			SetFaults(Faults{})
			appendAll(t, j, "next")
			assertFile(t, path, want+"next\n")
		})
	}
}

// TestJournalTornTail: a final record without its newline, or one the
// decoder rejects, was never acknowledged; OpenJournal drops it and
// cuts the file back so the next append follows the last good record.
func TestJournalTornTail(t *testing.T) {
	cases := []struct{ name, data string }{
		{"unterminated", "good-1\ngood-2\n{\"half"},
		{"undecodable", "good-1\ngood-2\nBAD\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			var recs []string
			j, err := OpenJournal(path, 0o644, func(rec []byte) error {
				if string(rec) == "BAD" {
					return errors.New("undecodable")
				}
				recs = append(recs, string(rec))
				return nil
			})
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			defer j.Close()
			if strings.Join(recs, ",") != "good-1,good-2" {
				t.Fatalf("replayed %q", recs)
			}
			assertFile(t, path, "good-1\ngood-2\n")
			appendAll(t, j, "good-3")
			assertFile(t, path, "good-1\ngood-2\ngood-3\n")
		})
	}
}

// TestJournalCorruptMiddleRecord: a bad record before the last is not a
// torn tail but corruption; OpenJournal fails loudly, naming the line,
// and leaves the file alone.
func TestJournalCorruptMiddleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	const data = "good-1\nBAD\ngood-3\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	errBad := errors.New("undecodable")
	_, err := OpenJournal(path, 0o644, func(rec []byte) error {
		if string(rec) == "BAD" {
			return errBad
		}
		return nil
	})
	if !errors.Is(err, errBad) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want the decoder's error at line 2", err)
	}
	assertFile(t, path, data)
}

// TestJournalRewrite: compaction replaces the file atomically, and
// appends continue after the rewritten records, not the old ones.
func TestJournalRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j, _ := replay(t, path)
	appendAll(t, j, "a=1", "b=1", "a=2")
	if err := j.Rewrite([][]byte{[]byte("a=2"), []byte("b=1")}); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	appendAll(t, j, "b=2")
	assertFile(t, path, "a=2\nb=1\nb=2\n")
	assertNoDebris(t, dir)
}
