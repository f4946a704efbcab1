package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"nucasim/internal/sim"
	"nucasim/internal/sweep"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can run the command end to end in a child process.
const runMainEnv = "NUCASIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nucasim runs the command with args in a child process and fails the
// test unless it exits 0.
func nucasim(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("nucasim %v: %v\n%s", args, err, out)
	}
}

func assertGone(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint %s still there after the run completed (stat: %v)", path, err)
	}
}

// TestCompletedRunRemovesCheckpoint: a -checkpoint run that completes
// writes periodic checkpoints on the way but leaves none behind.
func TestCompletedRunRemovesCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "run.ckpt")
	nucasim(t, "-scheme", "adaptive", "-warmup-instrs", "20000", "-cycles", "60000",
		"-checkpoint", ck, "-checkpoint-every", "20000")
	assertGone(t, ck)
}

// TestCompletedResumeRemovesCheckpoint: a -resume run that completes
// removes the checkpoint it resumed (and checkpointed to).
func TestCompletedResumeRemovesCheckpoint(t *testing.T) {
	cfg, mix, err := sweep.Base{
		Scheme: "adaptive", Seed: 1, Apps: []string{"ammp", "swim"},
		WarmupInstructions: 20000, MeasureCycles: 60000,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sim.WarmupCheckpoint(context.Background(), cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	if err := sim.WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	nucasim(t, "-resume", path)
	assertGone(t, path)
}
