// Command crashsmoke is the CI crash-consistency test for nucaserve: it
// kills a real server binary with SIGKILL mid-job — no drain, no signal
// handler, exactly what the OOM killer or a power cut does — restarts
// it over the same state directory, and proves the crash cost progress
// but never correctness:
//
//  1. the restarted server resumes the job from its periodic
//     crash-safety checkpoint (the status reports resumed=true) and
//     finishes it;
//  2. the served result is byte-identical to an uninterrupted in-process
//     run of the same spec (the determinism contract survives a kill);
//  3. the state directory passes the store's own integrity verification
//     afterwards — every committed artifact matches its manifest and
//     nothing was quarantined.
//
// Usage:
//
//	crashsmoke -bin /tmp/nucaserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/tools/smoke"
)

// The job must outlive the kill by a wide margin yet finish quickly on
// resume: ~20M measured cycles runs a few seconds, and -checkpoint-every
// 20000 cycles means a checkpoint lands almost immediately after the
// measure phase starts.
var jobReq = serve.JobRequest{
	Scheme:             "adaptive",
	Apps:               []string{"ammp", "swim"},
	Seed:               7,
	WarmupInstructions: 200_000,
	WarmupCycles:       20_000,
	MeasureCycles:      20_000_000,
}

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	flag.Parse()

	work, err := os.MkdirTemp("", "crashsmoke-*")
	if err != nil {
		smoke.Fatal(err)
	}
	defer os.RemoveAll(work)
	state := filepath.Join(work, "state")

	// Reference: an uninterrupted in-process run of the same spec.
	cfg, mix, err := jobReq.Build()
	if err != nil {
		smoke.Fatal(err)
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		smoke.Fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: hash}
	want, err := serve.EncodeResult(sim.Run(cfg, mix))
	if err != nil {
		smoke.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "crashsmoke: reference run done (job %s, %d bytes)\n", hash[:12], len(want))

	// Round 1: start the victim, submit, wait for a checkpoint to land,
	// then SIGKILL it mid-run.
	base := smoke.Start(*bin, state, filepath.Join(work, "addr1"), "-checkpoint-every", "20000")
	spec, err := json.Marshal(jobReq)
	if err != nil {
		smoke.Fatal(err)
	}
	id, _ := smoke.Submit(base, spec)
	if id != hash {
		smoke.Fatal(fmt.Errorf("server content address %s != locally computed %s", id, hash))
	}
	ckpt := filepath.Join(state, "jobs", hash, "checkpoint.bin")
	smoke.WaitUntil("a checkpoint exists", 60*time.Second, func() bool {
		_, err := os.Stat(ckpt)
		return err == nil
	})
	if st := smoke.JobStatus(base, id); st.State != serve.StateRunning {
		smoke.Fatal(fmt.Errorf("job is %q at kill time, want running (job too short to crash mid-run?)", st.State))
	}
	smoke.Kill() // SIGKILL: no drain, no checkpoint-on-exit
	fmt.Fprintln(os.Stderr, "crashsmoke: server killed with SIGKILL mid-job")

	// Round 2: restart over the same state. Recovery must re-queue the
	// job from its on-disk spec and resume from the checkpoint.
	base = smoke.Start(*bin, state, filepath.Join(work, "addr2"), "-checkpoint-every", "20000")
	smoke.AwaitDone(base, id, 120*time.Second)
	if st := smoke.JobStatus(base, id); !st.Resumed {
		smoke.Fatal(fmt.Errorf("job finished without resuming from its checkpoint (progress was thrown away)"))
	}
	got := smoke.Get(base+"/v1/jobs/"+id+"/result", http.StatusOK)
	if !bytes.Equal(got, want) {
		smoke.Fatal(fmt.Errorf("post-crash result differs from uninterrupted reference (%d vs %d bytes)", len(got), len(want)))
	}
	smoke.Get(base+"/v1/jobs/"+id+"/result?artifact=epochs", http.StatusOK)
	smoke.Stop()

	// The state directory itself must verify: the entry passes its
	// manifest check, the obsolete checkpoint is gone, and nothing was
	// quarantined along the way.
	store, err := serve.NewStore(state)
	if err != nil {
		smoke.Fatal(err)
	}
	if !store.HasResult(hash) {
		smoke.Fatal(fmt.Errorf("committed entry fails integrity verification after crash recovery"))
	}
	if store.HasCheckpoint(hash) {
		smoke.Fatal(fmt.Errorf("stale checkpoint survived the commit"))
	}
	if entries, err := os.ReadDir(store.QuarantineDir()); err == nil && len(entries) > 0 {
		smoke.Fatal(fmt.Errorf("%d entries were quarantined during a clean crash-recovery cycle", len(entries)))
	}

	fmt.Println("crashsmoke ok: SIGKILL mid-job, restart resumed from checkpoint, result byte-identical, store verifies")
}
