// Package cliflags centralizes the observability flag plumbing every
// nucasim CLI used to repeat: -json, -metrics-out, -trace-out,
// -span-out, -cpuprofile and -memprofile, plus the open/commit/abort
// lifecycle of the artifacts behind them. Artifacts are staged through
// internal/atomicio, so an interrupted or failed invocation never
// publishes a partial CSV or trace under the real name, and profiles
// start/stop around the whole invocation.
//
// Usage shape:
//
//	f := cliflags.Register(flag.CommandLine, cliflags.Spec{...})
//	flag.Parse()
//	s, err := f.Open(false)          // stage trace, start CPU profile
//	...
//	err = run(s.Trace)               // s.Trace is nil without -trace-out
//	s.Close(err == nil)              // commit or abort, stop profiles
package cliflags

import (
	"errors"
	"flag"
	"io"

	"nucasim/internal/atomicio"
	"nucasim/internal/telemetry"
)

// Spec selects which shared flags a command registers and the
// command-specific halves of their usage strings (the artifacts mean
// different things to nucasim, nucaserve and experiments).
type Spec struct {
	// Command names the invocation's root span and the process row of
	// the exported trace ("nucasim", "nucaserve", "experiments").
	// Defaults to "cli".
	Command      string
	JSONUsage    string // "" omits -json
	MetricsUsage string // "" omits -metrics-out
	TraceUsage   string // "" omits -trace-out
	SpanUsage    string // "" omits -span-out
	Profiles     bool   // register -cpuprofile / -memprofile
}

// Flags holds the parsed values of the shared observability flags.
type Flags struct {
	JSON       bool
	MetricsOut string
	TraceOut   string
	SpanOut    string
	CPUProfile string
	MemProfile string

	command string
}

// Register installs the flags selected by spec on fs and returns the
// value holder, to be read after fs is parsed.
func Register(fs *flag.FlagSet, spec Spec) *Flags {
	f := &Flags{command: spec.Command}
	if f.command == "" {
		f.command = "cli"
	}
	if spec.JSONUsage != "" {
		fs.BoolVar(&f.JSON, "json", false, spec.JSONUsage)
	}
	if spec.MetricsUsage != "" {
		fs.StringVar(&f.MetricsOut, "metrics-out", "", spec.MetricsUsage)
	}
	if spec.TraceUsage != "" {
		fs.StringVar(&f.TraceOut, "trace-out", "", spec.TraceUsage)
	}
	if spec.SpanUsage != "" {
		fs.StringVar(&f.SpanOut, "span-out", "", spec.SpanUsage)
	}
	if spec.Profiles {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	}
	return f
}

// Session is an opened set of artifact sinks, running profiles, and the
// invocation's wall-clock span recorder.
type Session struct {
	// Trace is the staged -trace-out artifact (nil without the flag).
	Trace *atomicio.File
	// Metrics is the staged -metrics-out artifact when Open was asked to
	// stream it; commands that render their CSV in one shot at the end
	// use Flags.WriteMetricsFile instead and leave this nil.
	Metrics *atomicio.File

	// Spans is the invocation's span flight recorder (nil without
	// -span-out) and Root the span covering the whole invocation. Hand
	// both to telemetry.Config (Spans / SpanParent: Root.ID()) so
	// simulation phases nest under the command.
	Spans *telemetry.SpanRecorder
	Root  telemetry.Span

	spanOut    string
	cpuProfile string
	memProfile string
	stopCPU    func() error
}

// Open starts the CPU profile, stages the streaming artifacts, and —
// with -span-out — opens the span recorder and the invocation's root
// span. streamMetrics also stages -metrics-out for incremental writing;
// leave it false when the command renders the file in one shot at the
// end.
func (f *Flags) Open(streamMetrics bool) (*Session, error) {
	stopCPU, err := telemetry.StartCPUProfile(f.CPUProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{
		spanOut:    f.SpanOut,
		cpuProfile: f.CPUProfile,
		memProfile: f.MemProfile,
		stopCPU:    stopCPU,
	}
	if f.SpanOut != "" {
		s.Spans = telemetry.NewSpanRecorder(telemetry.SpanConfig{Process: f.command})
		s.Root = s.Spans.StartSpan(f.command, 0)
	}
	if f.TraceOut != "" {
		if s.Trace, err = atomicio.Create(f.TraceOut); err != nil {
			s.Close(false)
			return nil, err
		}
	}
	if streamMetrics && f.MetricsOut != "" {
		if s.Metrics, err = atomicio.Create(f.MetricsOut); err != nil {
			s.Close(false)
			return nil, err
		}
	}
	return s, nil
}

// StartSpan opens a span under the invocation's root (inert without
// -span-out), for artifact writes and other command-level phases.
func (s *Session) StartSpan(name string) telemetry.Span {
	return s.Spans.StartSpan(name, s.Root.ID())
}

// Close finishes the session: staged artifacts are committed when ok is
// true and aborted otherwise (an interrupted run never publishes a
// partial file), the CPU profile is stopped, the heap profile is
// written — both leaving profile_written span events — and finally the
// root span ends and the -span-out trace is published. Safe to call on
// a partially opened session.
func (s *Session) Close(ok bool) error {
	var errs []error
	commit := func(a *atomicio.File, span string) {
		if a == nil {
			return
		}
		if ok {
			sp := s.StartSpan(span)
			errs = append(errs, a.Commit())
			sp.End()
		} else {
			a.Abort()
		}
	}
	commit(s.Trace, "artifact.trace_commit")
	commit(s.Metrics, "artifact.metrics_commit")
	if s.stopCPU != nil {
		err := s.stopCPU()
		errs = append(errs, err)
		if err == nil && s.cpuProfile != "" {
			s.Spans.Event("profile_written.cpu", s.Root.ID())
		}
	}
	if err := telemetry.WriteHeapProfile(s.memProfile); err != nil {
		errs = append(errs, err)
	} else if s.memProfile != "" {
		s.Spans.Event("profile_written.heap", s.Root.ID())
	}
	s.Root.End()
	if ok && s.spanOut != "" {
		errs = append(errs, atomicio.WriteFile(s.spanOut, s.Spans.WriteTrace))
	}
	return errors.Join(errs...)
}

// WriteMetricsFile renders the -metrics-out artifact in one atomic shot;
// a no-op without the flag.
func (f *Flags) WriteMetricsFile(render func(w io.Writer) error) error {
	if f.MetricsOut == "" {
		return nil
	}
	return atomicio.WriteFile(f.MetricsOut, render)
}
