// Package smoke is the shared harness of the nucaserve smoke commands
// (servesmoke, sweepsmoke, crashsmoke): it runs one real server binary
// as a child process and gives the command a fail-fast HTTP and job
// client. Every failure goes through Fatal, which kills the child first,
// so a failed smoke never leaves a server running.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nucasim/internal/serve"
)

var server *exec.Cmd

// Start launches bin on an ephemeral port over the state directory,
// appending extraArgs to the standard flags, and returns the server's
// base URL once it has written its address to addrFile.
func Start(bin, state, addrFile string, extraArgs ...string) string {
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state", state, "-drain", "30s"}, extraArgs...)
	server = exec.Command(bin, args...)
	server.Stdout = os.Stderr
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil {
			return "http://" + strings.TrimSpace(string(addr))
		}
		time.Sleep(20 * time.Millisecond)
	}
	Fatal(fmt.Errorf("server never wrote %s", addrFile))
	return ""
}

// Stop SIGTERMs the running server and requires a clean exit within 60 s.
func Stop() {
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- server.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			Fatal(fmt.Errorf("server exited uncleanly after SIGTERM: %w", err))
		}
	case <-time.After(60 * time.Second):
		Fatal(fmt.Errorf("server did not exit within 60s of SIGTERM"))
	}
}

// Kill SIGKILLs the running server — no drain, no signal handler, what
// the OOM killer or a power cut does — and reaps it.
func Kill() {
	if err := server.Process.Kill(); err != nil {
		Fatal(err)
	}
	server.Wait()
}

// Get fetches url and requires the wantCode status, returning the body.
func Get(url string, wantCode int) []byte {
	resp, err := http.Get(url)
	if err != nil {
		Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		Fatal(err)
	}
	if resp.StatusCode != wantCode {
		Fatal(fmt.Errorf("GET %s: HTTP %d, want %d\n%s", url, resp.StatusCode, wantCode, body))
	}
	return body
}

// Submit POSTs a job spec to the server at base and returns the job id
// and the HTTP status. A reply without a job id is fatal.
func Submit(base string, spec []byte) (id string, code int) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		Fatal(err)
	}
	if st.ID == "" {
		Fatal(fmt.Errorf("submit returned no job id (HTTP %d)", resp.StatusCode))
	}
	return st.ID, resp.StatusCode
}

// JobStatus reads job id's status from the server at base.
func JobStatus(base, id string) serve.Status {
	var st serve.Status
	if err := json.Unmarshal(Get(base+"/v1/jobs/"+id, http.StatusOK), &st); err != nil {
		Fatal(err)
	}
	return st
}

// WaitUntil polls cond until it holds; past limit it is fatal.
func WaitUntil(what string, limit time.Duration, cond func() bool) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	Fatal(fmt.Errorf("timed out waiting for %s", what))
}

// AwaitDone polls job id until it is done. A job that fails or is
// canceled, or is not done within limit, is fatal.
func AwaitDone(base, id string, limit time.Duration) {
	WaitUntil("job "+id+" done", limit, func() bool {
		st := JobStatus(base, id)
		switch st.State {
		case serve.StateFailed, serve.StateCanceled:
			Fatal(fmt.Errorf("job ended %q (%s), want done", st.State, st.Error))
		}
		return st.State == serve.StateDone
	})
}

// Fatal kills the server, if one is running, reports err under the
// command's name and exits 1.
func Fatal(err error) {
	if server != nil && server.Process != nil {
		server.Process.Kill()
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
