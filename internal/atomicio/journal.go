package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// Journal stage names, in addition to OpWrite, OpSync and OpSyncDir.
const (
	OpOpen     = "open"     // reading, opening or creating the journal file
	OpTruncate = "truncate" // cutting the file back to its last complete record
)

// Crash-simulation stage boundaries of Journal.Append.
const (
	crashAfterAppend     = "after-append"      // record written, not yet synced
	crashAfterAppendSync = "after-append-sync" // record synced, not yet acknowledged
)

// Journal is an append-only file of newline-terminated records, each
// made durable by one fsync. Appending costs one write and one fsync,
// where WriteFile costs a create, fsync, rename and directory fsync, so
// state that changes often is journaled and folded into one record per
// key on read, the last record winning. Its two users are serve job
// records and campaign checkpoints (exp.Checkpoint), which append one
// record per completed shard.
//
// The file only ever holds complete records followed, after a crash,
// by at most one torn record: Append writes at the end of the last
// complete record and, when any stage fails, cuts the file back there
// before returning, so the next append never follows torn bytes. A
// record whose Append returned nil survives a crash and power loss; one
// whose Append failed is gone. OpenJournal drops the torn tail a crash
// mid-append can leave.
//
// A Journal is not safe for concurrent use; its owner serializes calls.
type Journal struct {
	path   string
	perm   os.FileMode
	f      *os.File // nil until the first Append after open or Close
	size   int64    // end of the last complete record
	synced bool     // this process has fsynced the file's directory
	torn   bool     // a failed cut left bytes past size
	buf    []byte   // record plus newline, reused across appends
}

// OpenJournal reads the journal at path and calls fn with each complete
// record, without its newline, in file order. It neither creates nor
// opens the file for writing: a missing journal is empty, and the first
// Append creates it. A final record that has no newline or that fn
// rejects was never acknowledged; it is dropped and the file is cut
// back to the end of the record before it. A record fn rejects anywhere
// else is corruption, and OpenJournal returns fn's error naming the
// record's line.
func OpenJournal(path string, perm os.FileMode, fn func(rec []byte) error) (*Journal, error) {
	j := &Journal{path: path, perm: perm}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return j, nil
	case err != nil:
		return nil, &Error{Op: OpOpen, Path: path, Err: err}
	}
	for line := 1; int(j.size) < len(data); line++ {
		rest := data[j.size:]
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			break // unterminated tail
		}
		if err := fn(rest[:n]); err != nil {
			if int(j.size)+n+1 < len(data) {
				return nil, fmt.Errorf("atomicio: %s line %d: %w", path, line, err)
			}
			break // undecodable last record
		}
		j.size += int64(n) + 1
	}
	if int(j.size) < len(data) {
		if err := os.Truncate(path, j.size); err != nil {
			return nil, &Error{Op: OpTruncate, Path: path, Err: err}
		}
	}
	return j, nil
}

// Append writes rec and a newline after the last complete record and
// fsyncs the file. The first append after OpenJournal also fsyncs the
// directory, so the file's own entry survives power loss even if the
// process that created it died before doing so. rec must not
// contain a newline. On any failure the file is cut back to the end of
// the previous record and a *Error is returned. The Faults injection
// applies as in WriteFile: an injected ENOSPC writes half the record
// first, and injected fsync and directory-fsync failures return EIO.
func (j *Journal) Append(rec []byte) (err error) {
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE, j.perm)
		if err != nil {
			return &Error{Op: OpOpen, Path: j.path, Err: err}
		}
		j.f = f
	}
	if j.torn {
		if err := j.f.Truncate(j.size); err != nil {
			return &Error{Op: OpTruncate, Path: j.path, Err: err}
		}
		j.torn = false
	}
	defer func() {
		if err != nil {
			j.torn = j.f.Truncate(j.size) != nil
		}
	}()
	j.buf = append(append(j.buf[:0], rec...), '\n')
	if injectWrite() {
		j.f.WriteAt(j.buf[:len(j.buf)/2], j.size)
		return &Error{Op: OpWrite, Path: j.path, Err: fmt.Errorf("injected fault: %w", syscall.ENOSPC)}
	}
	if _, err := j.f.WriteAt(j.buf, j.size); err != nil {
		return &Error{Op: OpWrite, Path: j.path, Err: err}
	}
	if err := crash(crashAfterAppend); err != nil {
		return err
	}
	if injectSync() {
		return &Error{Op: OpSync, Path: j.path, Err: fmt.Errorf("injected fault: %w", syscall.EIO)}
	}
	if err := j.f.Sync(); err != nil {
		return &Error{Op: OpSync, Path: j.path, Err: err}
	}
	if err := crash(crashAfterAppendSync); err != nil {
		return err
	}
	if !j.synced {
		if injectDirSync() {
			return &Error{Op: OpSyncDir, Path: j.path, Err: fmt.Errorf("injected fault: %w", syscall.EIO)}
		}
		if err := SyncDir(filepath.Dir(j.path)); err != nil {
			return &Error{Op: OpSyncDir, Path: j.path, Err: err}
		}
		j.synced = true
	}
	j.size += int64(len(j.buf))
	return nil
}

// Rewrite replaces the whole journal with recs, one record each,
// through WriteFile: a crash leaves either the old journal or the new
// one. It is how an owner compacts a journal whose keys have many
// records down to one each.
func (j *Journal) Rewrite(recs [][]byte) error {
	var data []byte
	for _, rec := range recs {
		data = append(append(data, rec...), '\n')
	}
	if err := WriteFile(j.path, data, j.perm); err != nil {
		return err
	}
	j.Close() // the open handle, if any, is the replaced file's
	j.size, j.synced, j.torn = int64(len(data)), true, false
	return nil
}

// Close releases the file handle. The journal stays usable: the next
// Append reopens the file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
