package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Layout names a registry's on-disk storage layout.
type Layout string

const (
	// LayoutAuto detects the layout from the directory contents: a root
	// journal.jsonl with no shards/ tree is a v1 registry and opens
	// single-file, untouched; anything else — a new registry included —
	// opens sharded.
	LayoutAuto Layout = ""
	// LayoutSingle is the v1 layout: one flat journal.jsonl at the registry
	// root. Kept so existing v1 registries open unchanged; new registries
	// are sharded.
	LayoutSingle Layout = "single"
	// LayoutSharded is the v2 layout: the journal split by workload
	// fingerprint into shards/<xx>/journal.jsonl, each independently locked
	// and loaded on first use.
	LayoutSharded Layout = "sharded"
)

// Options select how a registry opens. The zero value auto-detects the
// layout.
type Options struct {
	// Layout selects the storage layout (see the Layout constants). Opening a
	// single-file registry with LayoutSharded migrates it in place.
	Layout Layout
}

// Stats is a snapshot of a registry's storage counters — the observability
// seam the service's /metrics endpoint renders. Counters are cumulative for
// the lifetime of the open handle.
type Stats struct {
	// Records is the number of journal lines backing the bests: one per
	// publish that improved or healed a key, superseded ones included. A
	// never-loaded shard counts from its advisory header.
	Records int
	// Appends counts journal appends written; LockAcquisitions the
	// cross-process file locks taken to write them.
	Appends          int64
	LockAcquisitions int64
	// ResidentShards is how many shard indexes are loaded (sharded layout
	// only): every shard resolved or published into since open.
	ResidentShards int
}

// shardCount is the number of journal shards in the sharded (v2) layout.
const shardCount = 256

// shardHeaderFile and shardLockFile are the per-shard files beside each
// shard's journal.jsonl:
//
//	header.json  {"v":1,"keys":K,"records":N} — advisory counts, so opening
//	             a large registry sums 256 headers instead of replaying
//	             every shard journal. It is rewritten in place after each
//	             append, without fsync: the journal stays authoritative, the
//	             counts are corrected whenever the shard index is (re)built
//	             (a crash between an append and its rewrite leaves them one
//	             publish behind until then), and a torn or missing header
//	             costs its shard one load at open. Headers older binaries
//	             wrote also carry a compaction generation; it is ignored.
//	lock         the shard's advisory write lock. It is a separate,
//	             never-renamed file because older binaries compact a shard
//	             by rename-replacing its journal — a flock held on the
//	             replaced journal inode would no longer exclude anyone.
const (
	shardHeaderFile = "header.json"
	shardLockFile   = "lock"
)

// shardHeaderVersion is the header.json format version.
const shardHeaderVersion = 1

type shardHeader struct {
	V       int `json:"v"`
	Keys    int `json:"keys"`
	Records int `json:"records"`
}

// readShardHeader reads a shard's counts; ok is false when the header is
// missing or torn.
func readShardHeader(dir string) (h shardHeader, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, shardHeaderFile))
	if err != nil {
		if os.IsNotExist(err) {
			return h, false, nil
		}
		return h, false, fmt.Errorf("registry: read shard header: %w", err)
	}
	return h, json.Unmarshal(data, &h) == nil, nil
}

func writeShardHeader(dir string, h shardHeader) error {
	h.V = shardHeaderVersion
	data, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("registry: marshal shard header: %w", err)
	}
	//lint:allow atomicwrite advisory counts, rewritten under the shard lock: a torn header costs the next open one shard load, never a wrong count
	if err := os.WriteFile(filepath.Join(dir, shardHeaderFile), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("registry: write shard header: %w", err)
	}
	return nil
}

// detectLayout reports the layout of a registry directory: a root
// journal.jsonl with no shards/ tree is a v1 registry (single-file); anything
// else — a shards/ tree, or an empty or not-yet-created directory — is
// sharded.
func detectLayout(dir string) Layout {
	if _, err := os.Stat(filepath.Join(dir, journalFile)); err == nil && !hasShards(dir) {
		return LayoutSingle
	}
	return LayoutSharded
}

func hasShards(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, shardsDir))
	return err == nil && st.IsDir()
}

// openSingle opens a v1 registry: its one root journal, loaded at once. The
// journal is its own lock file, the flock older binaries take on it too.
func openSingle(dir string) (*Registry, error) {
	path := filepath.Join(dir, journalFile)
	j := &journal{dir: dir, lock: path}
	if err := j.load(); err != nil {
		return nil, err
	}
	return newRegistry(LayoutSingle, []*journal{j}), nil
}

// openSharded opens a v2 registry: shardCount shard journals, each loaded on
// first use, with Len and Stats seeded from the shard headers — 256 small
// reads instead of replaying every journal, so opening stays cheap no matter
// how many records the registry holds. A shard whose header is torn or
// missing while its journal exists is loaded at once to count it.
func openSharded(dir string) (*Registry, error) {
	root := filepath.Join(dir, shardsDir)
	// Creating the shards/ marker makes the layout choice sticky for later
	// auto-detecting opens; like the registry directory itself it is the one
	// write opening is allowed.
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create shards dir: %w", err)
	}
	journals := make([]*journal, shardCount)
	for i := range journals {
		sdir := filepath.Join(root, fmt.Sprintf("%02x", i))
		j := &journal{dir: sdir, lock: filepath.Join(sdir, shardLockFile), shard: true}
		h, ok, err := readShardHeader(sdir)
		switch {
		case err != nil:
			return nil, err
		case ok:
			j.keys, j.records = h.Keys, h.Records
		default:
			if _, err := os.Stat(j.path()); err == nil {
				if err := j.load(); err != nil {
					return nil, err
				}
			}
		}
		journals[i] = j
	}
	return newRegistry(LayoutSharded, journals), nil
}
