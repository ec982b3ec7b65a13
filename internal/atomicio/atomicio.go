// Package atomicio provides crash-atomic, crash-durable file writes: a
// reader never observes a half-written file, and a completed write
// survives power loss. The pattern is the standard one — write to a
// temporary file in the destination directory, fsync it, rename over
// the destination, then fsync the directory. The directory fsync is not
// optional garnish: the rename lives in the directory's metadata, and
// until that metadata is on stable storage a power failure can undo the
// rename even though the new file's *data* was synced — the reader
// would come back up seeing the old file (acceptable) or, on some
// filesystems, a directory entry pointing at nothing (not acceptable
// for a checkpoint that claimed to be durable). Campaign checkpoints,
// result-cache entries and fleet coordinator state all go through this
// path, so the resume guarantees those layers advertise hold across
// kill -9 and power loss alike.
//
// State that changes several times per request — serve's job records —
// goes through a Journal instead: an append-only file of newline-
// terminated records, one write and one fsync per record, read back
// with the last record per key winning. A failed append is cut back off
// the file before it returns, OpenJournal drops the torn tail a crash
// mid-append leaves, and Rewrite compacts the file through WriteFile.
//
// Every failure is returned as a typed *Error naming the stage that
// failed and wrapping the underlying (usually syscall) error, and the
// temporary file is removed on every failure path — a failed write
// never leaves `.tmp` debris next to a checkpoint. The package also
// carries deterministic resource-exhaustion injection (SetFaults):
// every-Nth-write ENOSPC with a short write, and every-Nth fsync or
// directory-fsync EIO, counted across WriteFile and Journal.Append —
// the chaos harness uses these to prove that checkpoints, cache entries
// and job records degrade into typed, retryable errors instead of
// corrupting state.
package atomicio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Write-sequence stage names. They appear in *Error.Op so callers and
// logs can tell exactly where a write died, and the crash-simulation
// hook fires between stages so tests can stop the sequence at every
// boundary and assert what a reader would find on disk.
const (
	OpCreateTemp = "create-temp" // making the temp file in the destination directory
	OpWrite      = "write"       // writing data into the temp file
	OpSync       = "sync"        // fsync of the temp file
	OpChmod      = "chmod"       // applying the destination permissions
	OpClose      = "close"       // closing the temp file
	OpRename     = "rename"      // renaming the temp over the destination
	OpSyncDir    = "sync-dir"    // fsync of the parent directory
)

// crashPoint names a stage boundary of the write sequence for the
// crash-simulation hook (process death, not an I/O error — so these
// are deliberately not wrapped in *Error).
const (
	crashAfterWrite  = "after-temp-write" // temp holds data, not yet synced
	crashAfterSync   = "after-temp-sync"  // temp durable, rename not done
	crashAfterRename = "after-rename"     // renamed, directory not yet synced
)

// testCrash, when non-nil, is invoked at each stage boundary with the
// stage name; returning a non-nil error aborts the sequence there, the
// way a crash would. Only tests set it.
var testCrash func(stage string) error

// Error is a failed atomic write: Op names the stage of the sequence
// that failed (OpWrite, OpSync, ...), Path is the destination the
// caller asked for (not the temp file), and Err is the underlying
// cause — unwrappable down to the syscall error, so callers can ask
// errors.Is(err, syscall.ENOSPC) to classify disk exhaustion as
// retryable rather than fatal.
type Error struct {
	Op   string
	Path string
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("atomicio: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Faults configures deterministic resource-exhaustion injection. A
// zero field disables that fault point; N>0 fails every Nth operation
// of that kind, counted process-wide from SetFaults. Counting by
// operation (not by file) keeps a chaos run reproducible for a given
// request schedule without the injector knowing anything about call
// sites.
type Faults struct {
	// WriteENOSPCEvery fails every Nth data write (WriteFile or
	// Journal.Append) with ENOSPC after writing only half the payload
	// — the classic disk-full short write.
	WriteENOSPCEvery int
	// SyncFailEvery fails every Nth temp-file or journal fsync with EIO
	// (dirty pages could not reach stable storage).
	SyncFailEvery int
	// DirSyncFailEvery fails every Nth directory fsync inside
	// WriteFile or Journal.Append with EIO (the rename or the new file
	// may not survive power loss, so the write must not be advertised
	// as durable).
	DirSyncFailEvery int
}

var (
	faultMu    sync.Mutex
	faults     Faults
	faultTally struct{ writes, syncs, dirSyncs int }
)

// SetFaults arms (or, with the zero value, disarms) resource-
// exhaustion injection and resets the operation counters. Injection is
// process-global: usserve exposes it via -inject-disk-faults so the
// chaos harness can exercise ENOSPC handling end-to-end.
func SetFaults(f Faults) {
	faultMu.Lock()
	defer faultMu.Unlock()
	faults = f
	faultTally.writes, faultTally.syncs, faultTally.dirSyncs = 0, 0, 0
}

// injectWrite reports whether this data write should fail with ENOSPC.
func injectWrite() bool {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faults.WriteENOSPCEvery <= 0 {
		return false
	}
	faultTally.writes++
	return faultTally.writes%faults.WriteENOSPCEvery == 0
}

// injectSync reports whether this temp-file fsync should fail with EIO.
func injectSync() bool {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faults.SyncFailEvery <= 0 {
		return false
	}
	faultTally.syncs++
	return faultTally.syncs%faults.SyncFailEvery == 0
}

// injectDirSync reports whether this directory fsync should fail.
func injectDirSync() bool {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faults.DirSyncFailEvery <= 0 {
		return false
	}
	faultTally.dirSyncs++
	return faultTally.dirSyncs%faults.DirSyncFailEvery == 0
}

// WriteFile atomically and durably replaces the file at path with data.
// The temporary file is created in path's directory (renames across
// filesystems are not atomic), synced before the rename, and removed on
// any failure — success leaves the new file, failure leaves the old
// file and no debris. After the rename the parent directory is synced
// so the rename itself survives power loss; a filesystem that cannot
// fsync a directory (EINVAL/ENOTSUP — e.g. some network and FUSE
// filesystems) is tolerated, every other directory-sync failure is
// returned. All failures are *Error values wrapping the underlying
// cause.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return &Error{Op: OpCreateTemp, Path: path, Err: err}
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if injectWrite() {
		// Simulate disk exhaustion mid-write: half the payload lands,
		// then the filesystem runs out of space. The temp is removed
		// by the deferred cleanup, so the torn data is never visible.
		tmp.Write(data[:len(data)/2])
		tmp.Close()
		return &Error{Op: OpWrite, Path: path, Err: fmt.Errorf("injected fault: %w", syscall.ENOSPC)}
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return &Error{Op: OpWrite, Path: path, Err: err}
	}
	if err := crash(crashAfterWrite); err != nil {
		tmp.Close()
		return err
	}
	if injectSync() {
		tmp.Close()
		return &Error{Op: OpSync, Path: path, Err: fmt.Errorf("injected fault: %w", syscall.EIO)}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return &Error{Op: OpSync, Path: path, Err: err}
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return &Error{Op: OpChmod, Path: path, Err: err}
	}
	if err := tmp.Close(); err != nil {
		return &Error{Op: OpClose, Path: path, Err: err}
	}
	if err := crash(crashAfterSync); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return &Error{Op: OpRename, Path: path, Err: err}
	}
	if err := crash(crashAfterRename); err != nil {
		return err
	}
	if injectDirSync() {
		// The rename happened but its durability cannot be promised;
		// report it so the caller treats the write as failed and
		// retries. The destination now holds complete new data (not
		// torn), so atomicity still holds even on this path.
		return &Error{Op: OpSyncDir, Path: path, Err: fmt.Errorf("injected fault: %w", syscall.EIO)}
	}
	if err := SyncDir(dir); err != nil {
		return &Error{Op: OpSyncDir, Path: path, Err: err}
	}
	return nil
}

// SyncDir fsyncs a directory so renames and unlinks inside it are
// durable. Filesystems that refuse to sync a directory handle
// (EINVAL/ENOTSUP) are tolerated — on those there is nothing stronger
// available — but every other failure is real and returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncError(err) {
		return err
	}
	return nil
}

// ignorableSyncError reports whether a directory-fsync failure means
// "this filesystem cannot do that" rather than "the sync was lost".
func ignorableSyncError(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// crash fires the crash-simulation hook, if armed.
func crash(stage string) error {
	if testCrash != nil {
		return testCrash(stage)
	}
	return nil
}
