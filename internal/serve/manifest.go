package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifest records the SHA-256 of every committed artifact in a store
// entry, so a reader can prove the bytes it is about to serve are the
// bytes the worker wrote. It is written after the entry's data artifact
// and before its commit marker: a directory with a marker but no
// manifest — or with any artifact whose hash disagrees — is corrupt by
// definition and is quarantined, never served.
//
// A job's spans.json and checkpoint.bin are deliberately not covered:
// spans.json is a best-effort wall-clock observation written after the
// commit (a done job without one answers /spans with 404, never with a
// render of a recorder it no longer holds), and checkpoint.bin is transient state whose own gob decode is
// its integrity check (a checkpoint that fails to decode is deleted and
// the job reruns from scratch).
type manifest struct {
	Version int `json:"version"`
	// Artifacts maps artifact file name → lowercase hex SHA-256.
	Artifacts map[string]string `json:"artifacts"`
}

// manifestVersion invalidates every existing manifest if the format or
// the covered-artifact set ever changes meaning.
const manifestVersion = 1

// manifestFile is the on-disk name, alongside the artifacts it covers.
const manifestFile = "manifest.json"

func artifactDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// encodeManifest renders the manifest deterministically (sorted keys —
// encoding/json sorts map keys — fixed indentation) so identical
// artifact sets produce identical manifest bytes.
func encodeManifest(m manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// CorruptError reports an artifact whose on-disk bytes failed integrity
// verification against its entry's manifest. The store quarantines the
// damaged directory before returning it, so by the time a caller sees
// this error the damaged bytes can no longer be served.
type CorruptError struct {
	Hash     string // entry label: "job <hash>" or "sweep <id>"
	Artifact string // file that failed, or "manifest.json" itself
	Reason   string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("serve: %s: artifact %s failed integrity check: %s", e.Hash, e.Artifact, e.Reason)
}

// verifyManifestDir checks dir's artifacts against its manifest: the
// required set must be covered, and every covered artifact's bytes must
// match the recorded hash. It reads each artifact exactly once and
// returns the first violation; subject labels the entry in reports.
// When want names a required artifact, it also returns the bytes of want
// it hashed, so a caller serves exactly what was verified.
func verifyManifestDir(dir, subject string, required []string, want string) ([]byte, *CorruptError) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, &CorruptError{Hash: subject, Artifact: manifestFile, Reason: "unreadable: " + err.Error()}
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, &CorruptError{Hash: subject, Artifact: manifestFile, Reason: "unparseable: " + err.Error()}
	}
	if m.Version != manifestVersion {
		return nil, &CorruptError{Hash: subject, Artifact: manifestFile,
			Reason: fmt.Sprintf("version %d, this build reads %d", m.Version, manifestVersion)}
	}
	for _, name := range required {
		if _, ok := m.Artifacts[name]; !ok {
			return nil, &CorruptError{Hash: subject, Artifact: name, Reason: "not covered by manifest"}
		}
	}
	// Verify in sorted order so failure reports are deterministic.
	names := make([]string, 0, len(m.Artifacts))
	for name := range m.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	var wanted []byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, &CorruptError{Hash: subject, Artifact: name, Reason: "unreadable: " + err.Error()}
		}
		if got := artifactDigest(data); got != m.Artifacts[name] {
			return nil, &CorruptError{Hash: subject, Artifact: name,
				Reason: fmt.Sprintf("sha256 %s, manifest says %s", got, m.Artifacts[name])}
		}
		if name == want {
			wanted = data
		}
	}
	return wanted, nil
}
