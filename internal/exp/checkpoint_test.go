package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ultrascalar/internal/fault"
)

// checkpointRecords splits a checkpoint file into its records, each
// with its newline.
func checkpointRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	recs := bytes.SplitAfter(data, []byte("\n"))
	if last := recs[len(recs)-1]; len(last) != 0 {
		t.Fatalf("checkpoint ends in an unterminated record %q", last)
	}
	return recs[:len(recs)-1]
}

// TestCheckpointCrashAtEveryAppend enumerates every state a crash can
// leave the checkpoint in: the first k records of the crash-free file,
// with or without half of record k+1. Resuming from each must skip
// exactly the shards those k records hold (the header is record 1),
// report byte-identically to an uninterrupted campaign and leave the
// crash-free checkpoint on disk.
func TestCheckpointCrashAtEveryAppend(t *testing.T) {
	cfg := testCampaign()
	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, full)

	cfg.Checkpoint = filepath.Join(t.TempDir(), "ref.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	recs := checkpointRecords(t, ref)
	if len(recs) != 1+full.Shards {
		t.Fatalf("crash-free checkpoint has %d records, want header + %d shards", len(recs), full.Shards)
	}

	for k := 0; k <= len(recs); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(recs) {
				continue
			}
			t.Run(fmt.Sprintf("after-%d-torn=%v", k, torn), func(t *testing.T) {
				data := bytes.Join(recs[:k], nil)
				if torn {
					data = append(data, recs[k][:len(recs[k])/2]...)
				}
				cfg.Checkpoint = filepath.Join(t.TempDir(), "campaign.ckpt")
				if err := os.WriteFile(cfg.Checkpoint, data, 0o644); err != nil {
					t.Fatal(err)
				}
				rep, err := RunFaultCampaign(cfg)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if wantResumed := max(k-1, 0); rep.Resumed != wantResumed {
					t.Errorf("resumed %d shards, want %d", rep.Resumed, wantResumed)
				}
				rep.Resumed = 0
				if got := renderReport(t, rep); got != want {
					t.Errorf("report diverges from the uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
				}
				got, err := os.ReadFile(cfg.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("final checkpoint differs from the crash-free one:\n%s", got)
				}
			})
		}
	}
}

// TestFaultCampaignCheckpointPinned pins the checkpoint format: a fresh
// checkpointed default campaign (`usfault -seed 1 -n 16 -checkpoint`)
// writes exactly testdata/usfault-seed1-n16.ckpt, and resuming from its
// first 20 lines yields the pinned report. Checkpoints written by
// earlier binaries therefore keep resuming. CI compares the usfault
// binary's checkpoint against the same file.
func TestFaultCampaignCheckpointPinned(t *testing.T) {
	pin, err := os.ReadFile(filepath.Join("testdata", "usfault-seed1-n16.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := os.ReadFile(filepath.Join("testdata", "usfault-seed1-n16.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FaultCampaignConfig{Seed: 1, Window: 16, N: 16, Detect: fault.DetectGolden}

	cfg.Checkpoint = filepath.Join(t.TempDir(), "fresh.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pin) {
		t.Fatalf("fresh checkpoint drifted from testdata/usfault-seed1-n16.ckpt\ngot:\n%s", got)
	}

	const kept = 20
	cfg.Checkpoint = filepath.Join(t.TempDir(), "partial.ckpt")
	if err := os.WriteFile(cfg.Checkpoint, bytes.Join(checkpointRecords(t, pin)[:kept], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("resume from the pinned prefix: %v", err)
	}
	if rep.Resumed != kept-1 {
		t.Errorf("resumed %d shards, want %d", rep.Resumed, kept-1)
	}
	rep.Resumed = 0
	if got := renderReport(t, rep); got != string(wantReport) {
		t.Fatalf("report resumed from the pinned prefix drifted from testdata/usfault-seed1-n16.txt\ngot:\n%s", got)
	}
}

// TestOpenCheckpointRefusesForeignFile: a file whose header is not a
// usfault-checkpoint/v2 header — here the retired usfleet-checkpoint/v1
// format, with and without shard lines — is refused and left as it is.
func TestOpenCheckpointRefusesForeignFile(t *testing.T) {
	const fp = "seed=5 n=1 window=6 cluster=0 detect=golden"
	hdr := `{"magic":"usfleet-checkpoint/v1","fingerprint":"` + fp + `"}` + "\n"
	line := `{"shard":"ultra1/fib/result-bit","cell":{"arch":"ultra1/fib","site":"result-bit","points":1}}` + "\n"
	for _, data := range []string{hdr, hdr + line} {
		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, fp); err == nil || !strings.Contains(err.Error(), "not a campaign checkpoint") {
			t.Errorf("opening a usfleet v1 file: got %v, want a not-a-campaign-checkpoint refusal", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Errorf("refused file changed: %q, %v", got, err)
		}
	}
}
