package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"nucasim/internal/atomicio"
)

// Store is the content-addressed on-disk cache. Jobs and sweeps are two
// kinds of one entry type, each a directory named by its content
// address under the kind's subdirectory:
//
//	kind   directory          data artifact  commit marker  quarantine name
//	job    <dir>/jobs/<hash>  epoch.csv      result.json    <hash>.<nanos>
//	sweep  <dir>/sweeps/<id>  table.csv      table.json     sweep-<id>.<nanos>
//
// Every entry holds spec.json (the canonical spec, persisted at
// submission so accepted work survives a restart), its data artifact,
// manifest.json (SHA-256 of spec, data and marker) and the commit
// marker. Commit order is data artifact, then manifest, then marker,
// each file individually atomic via internal/atomicio — so a directory
// without a marker is unfinished work a restarted server re-queues, and
// a committed entry always has a verifiable manifest. Every read path
// (cache-hit decisions and artifact serving alike) checks the bytes
// against it; an entry that fails is moved wholesale into
// <dir>/quarantine/ and its work reruns — stale, never wrong. The
// recovery scan (pending) re-persists a quarantined entry's spec into a
// fresh directory, so corrupt jobs and sweeps alike rerun after a
// restart.
//
// Jobs carry two extras outside the manifest: checkpoint.bin, crash-safe
// mid-run state dropped once the result commits, and spans.json, the
// wall-clock span trace written after the commit — it records
// observations, not simulated results, so a job without one is still
// complete, and /v1/jobs/{id}/spans answers 404 for it.
type Store struct {
	dir string

	// qmu serializes quarantine moves so two readers discovering the
	// same corruption race on one os.Rename, not on bookkeeping.
	qmu sync.Mutex
	// onQuarantine, when set, observes every successful quarantine move
	// (the Server wires it to the serve.cache_quarantined counter and
	// the process log).
	onQuarantine func(name, reason string)
	// commitHook, when set, is called after each file a commit writes,
	// with that file's name, and may veto the rest — the crash-at-point
	// seam the fault matrix uses to reproduce a process dying between
	// artifact writes. Production servers never set it.
	commitHook func(step string) error
}

// entryKind describes one kind of store entry.
type entryKind struct {
	dir     string // subdirectory of the state dir
	data    string // artifact committed before the manifest
	marker  string // commit marker, written last
	label   string // names the entry in CorruptError reports
	qprefix string // quarantine directory name prefix
}

var (
	jobKind   = entryKind{dir: "jobs", data: "epoch.csv", marker: "result.json", label: "job"}
	sweepKind = entryKind{dir: "sweeps", data: "table.csv", marker: "table.json", label: "sweep", qprefix: "sweep-"}
)

const specFile = "spec.json"

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, jobKind.dir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) entryDir(k entryKind, id string) string { return filepath.Join(st.dir, k.dir, id) }

func (st *Store) path(k entryKind, id, name string) string {
	return filepath.Join(st.entryDir(k, id), name)
}

// QuarantineDir is where entries that failed integrity verification are
// moved (with a nanosecond suffix, so repeated corruption of the same
// entry never collides).
func (st *Store) QuarantineDir() string { return filepath.Join(st.dir, "quarantine") }

func writeBytes(path string, data []byte) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// putSpec persists an entry's canonical spec, creating its directory.
func (st *Store) putSpec(k entryKind, id string, spec []byte) error {
	if err := os.MkdirAll(st.entryDir(k, id), 0o755); err != nil {
		return err
	}
	return writeBytes(st.path(k, id, specFile), spec)
}

// commit publishes an entry: the data artifact, then the manifest
// covering spec, data and marker, then the marker. A crash between any
// two steps leaves either an uncommitted entry (no marker → the work
// reruns) or a committed, fully verifiable one — never a committed
// entry the manifest cannot vouch for.
func (st *Store) commit(k entryKind, id string, data, marker []byte) error {
	spec, err := os.ReadFile(st.path(k, id, specFile))
	if err != nil {
		return fmt.Errorf("serve: committing %s %s without a persisted spec: %w", k.label, id, err)
	}
	mbytes, err := encodeManifest(manifest{Version: manifestVersion, Artifacts: map[string]string{
		specFile: artifactDigest(spec),
		k.data:   artifactDigest(data),
		k.marker: artifactDigest(marker),
	}})
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		bytes []byte
	}{{k.data, data}, {manifestFile, mbytes}, {k.marker, marker}} {
		if err := writeBytes(st.path(k, id, f.name), f.bytes); err != nil {
			return err
		}
		if st.commitHook != nil {
			if err := st.commitHook(f.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// covered lists the artifacts an entry's manifest must cover.
func (k entryKind) covered() []string { return []string{specFile, k.data, k.marker} }

// verify checks a committed entry against its manifest, read-only, and
// returns the verified bytes of the artifact want ("" for none).
func (st *Store) verify(k entryKind, id, want string) ([]byte, *CorruptError) {
	return verifyManifestDir(st.entryDir(k, id), k.label+" "+id, k.covered(), want)
}

// check verifies an entry for serving, as readVerified does, without
// returning any artifact.
func (st *Store) check(k entryKind, id string) error {
	_, err := st.readVerified(k, id, "")
	return err
}

// readVerified verifies an entry for serving and returns the bytes of
// its artifact name ("" for none) that the verification hashed, so a
// reader only receives bytes the manifest vouched for. name must be an
// artifact the manifest covers. An uncommitted entry (no marker) returns
// the stat error — a plain cache miss, e.g. the entry is being
// recomputed right now, not an integrity violation. A committed entry
// that fails verification is quarantined before the *CorruptError
// returns, so a caller that sees it knows the damaged bytes are already
// out of serving reach.
func (st *Store) readVerified(k entryKind, id, name string) ([]byte, error) {
	if name != "" && !slices.Contains(k.covered(), name) {
		return nil, fmt.Errorf("serve: %s %s: artifact %s is not covered by its manifest", k.label, id, name)
	}
	if _, err := os.Stat(st.path(k, id, k.marker)); err != nil {
		return nil, err
	}
	data, cerr := st.verify(k, id, name)
	if cerr != nil {
		st.quarantine(k, id, cerr.Artifact+": "+cerr.Reason)
		return nil, cerr
	}
	return data, nil
}

// quarantine moves an entry's whole directory into quarantine/ and
// records why. Idempotent under races: whichever caller wins the rename
// reports the move; the loser finds the directory gone and stays quiet.
func (st *Store) quarantine(k entryKind, id, reason string) {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	// Re-check the commit marker under the lock: a missing directory was
	// already quarantined (or removed) by a racing reader, and a directory
	// without a marker is unfinished work (a racing remove +
	// resubmission), not corruption — moving it would steal an in-flight
	// commit's directory out from under the writer.
	if _, err := os.Stat(st.path(k, id, k.marker)); err != nil {
		return
	}
	if err := os.MkdirAll(st.QuarantineDir(), 0o755); err != nil {
		return
	}
	name := k.qprefix + id
	dst := filepath.Join(st.QuarantineDir(), name+"."+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := os.Rename(st.entryDir(k, id), dst); err != nil {
		return
	}
	// Best effort: the reason travels with the evidence for the operator.
	_ = writeBytes(filepath.Join(dst, "REASON"), []byte(reason+"\n"))
	if st.onQuarantine != nil {
		st.onQuarantine(name, reason)
	}
}

// remove deletes everything stored for an entry (canceled or failed
// work, so a restart does not resurrect it). It takes the quarantine
// lock so a removal never interleaves with a quarantine move of the
// same directory.
func (st *Store) remove(k entryKind, id string) error {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	return os.RemoveAll(st.entryDir(k, id))
}

// list names every entry directory of kind k, committed or not;
// quarantined entries live elsewhere and are never listed.
func (st *Store) list(k entryKind) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, k.dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// pending is the recovery scan: it lists entries of kind k with a spec
// but no committed marker — work that was queued, running, or
// checkpointed when the previous process stopped — mapped to their
// canonical spec bytes. It is also the startup integrity pass: each
// committed entry is verified once, and one that fails is quarantined,
// its spec (when still readable) re-persisted into a fresh directory,
// and reported pending so the work reruns.
func (st *Store) pending(k entryKind) (map[string][]byte, error) {
	ids, err := st.list(k)
	if err != nil {
		return nil, err
	}
	pending := make(map[string][]byte)
	for _, id := range ids {
		// Read the spec before the check: quarantining moves the
		// directory, and the spec is what lets the work rerun.
		spec, specErr := os.ReadFile(st.path(k, id, specFile))
		err := st.check(k, id)
		if err == nil {
			continue
		}
		if specErr != nil {
			// A directory without a readable spec is junk (e.g. a crash
			// between MkdirAll and the spec write); skip it.
			continue
		}
		var cerr *CorruptError
		if errors.As(err, &cerr) {
			if err := st.putSpec(k, id, spec); err != nil {
				return nil, fmt.Errorf("serve: re-queueing quarantined %s %s: %w", k.label, id, err)
			}
		}
		pending[id] = spec
	}
	return pending, nil
}

// Fsck is the read-only integrity check behind artifactcheck
// -servestore: it verifies every committed job and sweep entry against
// its manifest without quarantining anything — the operator wants a
// report, not a remediation. It returns how many entries it examined
// and one error per entry that fails. Uncommitted entries verify clean:
// they are pending work, not corruption.
func (st *Store) Fsck() (int, []error) {
	var n int
	var errs []error
	for _, k := range []entryKind{jobKind, sweepKind} {
		ids, err := st.list(k)
		if err != nil {
			return n, append(errs, err)
		}
		for _, id := range ids {
			n++
			if _, err := os.Stat(st.path(k, id, k.marker)); err != nil {
				continue
			}
			if _, cerr := st.verify(k, id, ""); cerr != nil {
				errs = append(errs, cerr)
			}
		}
	}
	return n, errs
}

// PutSpec persists a job's canonical spec bytes, creating its entry
// directory. Called at submission so queued work survives a restart.
func (st *Store) PutSpec(hash string, spec []byte) error { return st.putSpec(jobKind, hash, spec) }

// PutResult commits a job's artifacts (epoch.csv, manifest, result.json
// as the marker), then drops the now-obsolete checkpoint.
func (st *Store) PutResult(hash string, result, epochCSV []byte) error {
	if err := st.commit(jobKind, hash, epochCSV, result); err != nil {
		return err
	}
	st.DropCheckpoint(hash)
	return nil
}

// HasResult reports a committed, integrity-verified job entry. Corrupt
// entries are quarantined as a side effect and read as absent — the
// caller reruns the job rather than serving wrong bytes.
func (st *Store) HasResult(hash string) bool { return st.check(jobKind, hash) == nil }

// ReadResult returns the committed result.json bytes, verified against
// the manifest. On corruption the entry is quarantined and a
// *CorruptError returned.
func (st *Store) ReadResult(hash string) ([]byte, error) {
	return st.readVerified(jobKind, hash, jobKind.marker)
}

// CheckpointPath names a job's mid-run snapshot; it is handed to
// sim.Config.CheckpointPath.
func (st *Store) CheckpointPath(hash string) string {
	return st.path(jobKind, hash, "checkpoint.bin")
}

// HasCheckpoint reports a resumable mid-run snapshot for hash.
func (st *Store) HasCheckpoint(hash string) bool {
	_, err := os.Stat(st.CheckpointPath(hash))
	return err == nil
}

// DropCheckpoint deletes hash's checkpoint (stale after a commit, or
// undecodable — either way the job no longer resumes from it).
func (st *Store) DropCheckpoint(hash string) { os.Remove(st.CheckpointPath(hash)) }

// spansPath names a job's wall-clock span-trace artifact.
func (st *Store) spansPath(hash string) string { return st.path(jobKind, hash, "spans.json") }

// putSpans writes the job's span trace atomically. Called after
// PutResult; spans.json never gates job completion.
func (st *Store) putSpans(hash string, render func(w io.Writer) error) error {
	return atomicio.WriteFile(st.spansPath(hash), render)
}
