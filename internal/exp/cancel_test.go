package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// countdownCtx is a deterministic context for cancellation tests: Err
// reports Canceled starting with its fire-th call. With the sweep pool
// forced serial, the probe sequence — and therefore the exact point the
// campaign stops — is reproducible.
type countdownCtx struct {
	calls, fire int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(key any) any           { return nil }
func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.fire {
		return context.Canceled
	}
	return nil
}

// TestCheckpointTornTailTolerated: a crash can tear the checkpoint's
// final line mid-write. On resume the torn tail must be detected and
// dropped — that shard reruns — and the finished report must still be
// byte-identical to an uninterrupted campaign.
func TestCheckpointTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()

	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	want := renderReport(t, full)

	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatalf("checkpointed campaign: %v", err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	shards := strings.Count(string(data), "\n") - 1 // minus the header
	// Tear the tail mid-line: drop the trailing newline and the last few
	// bytes of the final shard record, leaving unparsable JSON.
	torn := data[:len(data)-5]
	if err := os.WriteFile(cfg.Checkpoint, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("resume over a torn tail failed: %v", err)
	}
	if resumed.Resumed != shards-1 {
		t.Errorf("resumed %d shards, want %d (torn final shard must rerun)", resumed.Resumed, shards-1)
	}
	resumed.Resumed = 0
	if got := renderReport(t, resumed); got != want {
		t.Errorf("report after torn-tail resume diverges:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// The resume cut the torn tail off and re-appended that shard; a
	// second resume must find every shard complete and parse cleanly end
	// to end.
	cached, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if cached.Resumed != shards {
		t.Errorf("second resume found %d shards, want %d", cached.Resumed, shards)
	}
}

// TestCheckpointMidFileCorruptionFails: only the LAST line may be torn
// (a crash tears at most the line being written). Corruption anywhere
// else cannot be explained by a torn tail and must fail loudly instead
// of silently dropping completed work.
func TestCheckpointMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()
	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	if _, err := RunFaultCampaign(cfg); err != nil {
		t.Fatalf("checkpointed campaign: %v", err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint has only %d lines", len(lines))
	}
	lines[2] = `{"shard": %% flipped bits %%`
	if err := os.WriteFile(cfg.Checkpoint, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFaultCampaign(cfg); err == nil {
		t.Fatal("campaign accepted a checkpoint with a corrupt interior line")
	} else if !strings.Contains(err.Error(), "corrupt checkpoint line") {
		t.Fatalf("unexpected error for interior corruption: %v", err)
	}
}

// TestCampaignPreCanceledContext: an already-canceled context stops the
// campaign before any shard runs, the error unwraps to context.Canceled,
// and the checkpoint is left valid — a later run with a live context
// completes and reports byte-identically.
func TestCampaignPreCanceledContext(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()

	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, full)

	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunFaultCampaignCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "stopped after 0/") {
		t.Errorf("error %q does not report zero completed shards", err)
	}

	resumed, err := RunFaultCampaignCtx(nil, cfg)
	if err != nil {
		t.Fatalf("campaign after canceled attempt: %v", err)
	}
	resumed.Resumed = 0
	if got := renderReport(t, resumed); got != want {
		t.Error("report after a canceled-then-restarted campaign diverges")
	}
}

// TestCampaignCanceledMidwayCheckpointsAndResumes: a cancellation firing
// partway through a serial campaign must stop it with some shards done
// and some not, persist exactly the finished shards, and resume to the
// byte-identical report.
func TestCampaignCanceledMidwayCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := testCampaign()

	full, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, full)
	totalShards := full.Shards

	prev := SetSweepWorkers(1) // deterministic probe sequence
	cfg.Checkpoint = filepath.Join(dir, "campaign.ckpt")
	_, err = RunFaultCampaignCtx(&countdownCtx{fire: 20}, cfg)
	SetSweepWorkers(prev)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}

	resumed, err := RunFaultCampaignCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume after midway cancel: %v", err)
	}
	if resumed.Resumed == 0 || resumed.Resumed >= totalShards {
		t.Errorf("resumed %d of %d shards; the cancellation did not land midway", resumed.Resumed, totalShards)
	}
	resumed.Resumed = 0
	if got := renderReport(t, resumed); got != want {
		t.Errorf("report after midway-cancel resume diverges:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
