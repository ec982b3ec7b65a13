package exp

import (
	"encoding/json"
	"errors"
	"fmt"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/fault"
)

// A campaign checkpoint is an atomicio.Journal: a header record binding
// the campaign configuration by fingerprint, then one record per
// completed shard. usfault, serve campaign jobs and the fleet
// coordinator all resume through it. Each shard costs one fsynced
// append, and a crash leaves the records already appended plus at most
// one torn record, which the next open drops (that shard reruns).
// Resuming verifies the header, so a file from a differently-configured
// campaign, or one that is not a campaign checkpoint at all, fails
// loudly instead of silently mixing results.

// v2: point seeds are keyed by shard identity (arch/workload/site)
// instead of shard index, so v1 checkpoints hold cells a v2 campaign
// would not reproduce; the magic bump makes them fail loudly.
const checkpointMagic = "usfault-checkpoint/v2"

type checkpointHeader struct {
	Magic       string `json:"magic"`
	Fingerprint string `json:"fingerprint"`
}

type checkpointRecord struct {
	Shard string     `json:"shard"`
	Cell  fault.Cell `json:"cell"`
}

// Checkpoint records completed campaign shards by shard key. It is not
// safe for concurrent use; its owner serializes calls.
type Checkpoint struct {
	j     *atomicio.Journal // nil: checkpointing is off
	cells map[string]fault.Cell
}

// OpenCheckpoint loads the checkpoint at path, creating it with a
// header for fingerprint if it is missing, empty or holds only a torn
// header. A file whose header names another format or another
// fingerprint is refused, as is corruption anywhere but the final
// record. An empty path turns checkpointing off: Record then only
// remembers cells in memory.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	c := &Checkpoint{cells: map[string]fault.Cell{}}
	if path == "" {
		return c, nil
	}
	header := false
	var refused error
	j, err := atomicio.OpenJournal(path, 0o644, func(rec []byte) error {
		switch {
		case refused != nil:
			return nil // not ours: skip the rest unparsed
		case !header:
			var hdr checkpointHeader
			if err := json.Unmarshal(rec, &hdr); err != nil {
				return errors.New("not a campaign checkpoint")
			}
			switch {
			case hdr.Magic != checkpointMagic:
				refused = fmt.Errorf("exp: %s is not a campaign checkpoint", path)
			case hdr.Fingerprint != fingerprint:
				refused = fmt.Errorf("exp: checkpoint %s was written by a different campaign\n  have: %s\n  want: %s",
					path, hdr.Fingerprint, fingerprint)
			}
			header = true
			return nil
		}
		var r checkpointRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			return fmt.Errorf("corrupt checkpoint line: %w", err)
		}
		c.cells[r.Shard] = r.Cell
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: reading checkpoint: %w", err)
	}
	if refused != nil {
		return nil, refused
	}
	c.j = j
	if !header {
		rec, _ := json.Marshal(checkpointHeader{Magic: checkpointMagic, Fingerprint: fingerprint}) // two strings cannot fail
		if err := j.Append(rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("exp: writing checkpoint: %w", err)
		}
	}
	return c, nil
}

// Record makes one completed shard durable, then remembers it.
func (c *Checkpoint) Record(key string, cell fault.Cell) error {
	if c.j != nil {
		rec, err := json.Marshal(checkpointRecord{Shard: key, Cell: cell})
		if err != nil {
			return err
		}
		if err := c.j.Append(rec); err != nil {
			return fmt.Errorf("exp: writing checkpoint: %w", err)
		}
	}
	c.cells[key] = cell
	return nil
}

// Cells returns the recorded cells by shard key. The map is the
// checkpoint's own: callers read it and never modify it.
func (c *Checkpoint) Cells() map[string]fault.Cell { return c.cells }

// Close releases the file handle; every recorded shard is already
// durable.
func (c *Checkpoint) Close() error {
	if c.j == nil {
		return nil
	}
	return c.j.Close()
}
