package faultinject

// This file extends the "every fault is caught by a claimed detector"
// discipline from the simulator's in-memory structures to the serving
// layer's on-disk state and worker pool. The catalog below is the
// single source of truth for the serve-layer fault matrix: each entry
// names an injected failure and the outcome the serving stack must
// produce. The matrix test in internal/serve iterates this catalog and
// fails if any entry lacks an injector (or any injector lacks an entry),
// so the prose in DESIGN.md, this catalog, and the executable proof
// cannot drift apart.
//
// The safety property every entry upholds is *stale-never-wrong*: no
// fault may cause the server to hand a client bytes that differ from
// what an uninterrupted run of the same spec would have produced. The
// three acceptable outcomes are therefore: the work is recovered (rerun
// or resumed, byte-identical result), the damaged artifacts are moved
// to quarantine and the job reruns, or the job fails explicitly with a
// diagnostic — never silently, never with corrupt output.

// ServeOutcome classifies how the serving layer must respond to a
// serve-layer fault.
type ServeOutcome string

const (
	// OutcomeRecovered: a restarted (or retrying) server completes the
	// job and the served result is byte-identical to an uninterrupted
	// run. Crash-point and checkpoint faults land here.
	OutcomeRecovered ServeOutcome = "recovered"
	// OutcomeQuarantined: integrity verification catches the damage, the
	// entry directory (job or sweep) moves to quarantine/,
	// serve.cache_quarantined is incremented, and a rerun produces the
	// correct bytes.
	OutcomeQuarantined ServeOutcome = "quarantined"
	// OutcomeFailed: the job transitions to StateFailed with a captured
	// diagnostic (error string, panic stack); no partial artifacts are
	// ever visible to readers.
	OutcomeFailed ServeOutcome = "failed"
)

// ServeFault is one entry of the serve-layer fault matrix.
type ServeFault struct {
	Name    string
	Outcome ServeOutcome
	// Description says what is injected and which detector catches it.
	Description string
}

// ServeMatrix returns the serve-layer fault catalog (DESIGN.md §11 is
// the prose version). Ordering is stable for reporting.
func ServeMatrix() []ServeFault {
	return []ServeFault{
		{
			Name:        "crash-before-commit",
			Outcome:     OutcomeRecovered,
			Description: "process dies after spec.json is persisted but before any result artifact; recovery scan re-queues the job from its spec",
		},
		{
			Name:        "crash-after-epoch-csv",
			Outcome:     OutcomeRecovered,
			Description: "process dies after epoch.csv, before manifest.json and the result.json commit marker; the entry is uncommitted and reruns",
		},
		{
			Name:        "crash-after-manifest",
			Outcome:     OutcomeRecovered,
			Description: "process dies after manifest.json, before result.json; still uncommitted (result.json is the marker), reruns",
		},
		{
			Name:        "crash-before-checkpoint-gc",
			Outcome:     OutcomeRecovered,
			Description: "process dies after the full commit but before the obsolete checkpoint.bin is deleted; the entry is served from cache and the stale checkpoint is garbage-collected at recovery",
		},
		{
			Name:        "bitflip-result",
			Outcome:     OutcomeQuarantined,
			Description: "one bit of a committed result.json flips on disk; the manifest SHA-256 check catches it on the next read",
		},
		{
			Name:        "bitflip-epoch-csv",
			Outcome:     OutcomeQuarantined,
			Description: "one bit of a committed epoch.csv flips on disk; caught by the manifest check even though result.json is intact",
		},
		{
			Name:        "truncate-result",
			Outcome:     OutcomeQuarantined,
			Description: "a committed result.json is torn to a prefix of itself (torn write / partial disk restore); caught by the manifest check",
		},
		{
			Name:        "missing-manifest",
			Outcome:     OutcomeQuarantined,
			Description: "manifest.json is deleted out from under a committed entry; an unverifiable entry is treated as corrupt, never served",
		},
		{
			Name:        "bitflip-sweep-csv",
			Outcome:     OutcomeQuarantined,
			Description: "one bit of a committed sweep's table.csv flips on disk; the recovery scan's manifest check quarantines the sweep entry, re-persists its spec, and the sweep re-aggregates from its cached points",
		},
		{
			Name:        "corrupt-checkpoint",
			Outcome:     OutcomeRecovered,
			Description: "checkpoint.bin fails gob decode when the worker continues the job after a restart; the checkpoint is deleted and the job reruns from scratch instead of wedging",
		},
		{
			Name:        "corrupt-fork-checkpoint",
			Outcome:     OutcomeRecovered,
			Description: "a sweep point's fork checkpoint.bin, written by its group's shared warmup, is garbage when the worker reads it; the checkpoint is deleted and the point reruns cold once, byte-identical (serve.sweep_fork_fallbacks)",
		},
		{
			Name:        "enospc-result-commit",
			Outcome:     OutcomeFailed,
			Description: "the filesystem returns ENOSPC while syncing result.json; the atomic write aborts, no partial artifact is visible, the job fails explicitly and a resubmission succeeds",
		},
		{
			Name:        "worker-panic",
			Outcome:     OutcomeFailed,
			Description: "the job's simulation goroutine panics; the worker recovers, captures the stack into the job record, and the process keeps serving",
		},
	}
}
