package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sweep"
	"nucasim/internal/tools/cliflags"
)

const windowsSpec = "../../testdata/sweeps/windows.json"

// newServer starts an in-process nucaserve behind an HTTP test server.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Options{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

// TestRemoteMatchesLocal: a spec file run on nucaserve downloads the
// table the same spec aggregates to in-process.
func TestRemoteMatchesLocal(t *testing.T) {
	session, err := cliflags.Register(flag.NewFlagSet("experiments", flag.ContinueOnError), cliflags.Spec{}).Open(false)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close(true)
	local, err := runSpec(windowsSpec, "", false, session)
	if err != nil {
		t.Fatal(err)
	}
	ts := newServer(t)
	remote, err := runSpec(windowsSpec, ts.URL+"/", false, session)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("remote table differs from the local one:\n%s\nwant\n%s", got, want)
	}
}

// TestRemoteRejectedSpec: a spec the server refuses surfaces its HTTP
// status and message as the run's error.
func TestRemoteRejectedSpec(t *testing.T) {
	ts := newServer(t)
	_, err := runRemote(ts.URL, sweep.Spec{Base: sweep.Base{Apps: []string{"ammp", "no-such-app"}}})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("runRemote = %v, want an HTTP 400 naming the unknown app", err)
	}
}
