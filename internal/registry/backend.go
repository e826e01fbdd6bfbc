package registry

import (
	"fmt"
	"os"
	"path/filepath"

	"harl/internal/tunelog"
)

// Layout names a registry's on-disk storage layout.
type Layout string

const (
	// LayoutAuto detects the layout from the directory contents: a root
	// journal.jsonl with no shards/ tree is a v1 registry and opens
	// single-file, untouched; anything else — a new registry included —
	// opens sharded.
	LayoutAuto Layout = ""
	// LayoutSingle is the v1 layout: one flat journal.jsonl, with the whole
	// index resident in memory. Kept so existing v1 registries open
	// unchanged; new registries are sharded.
	LayoutSingle Layout = "single"
	// LayoutSharded is the v2 layout: the journal split by workload
	// fingerprint into shards/<xx>/journal.jsonl, each independently locked
	// and compacted, with an LRU bounding how many shard indexes stay
	// resident. Right for registries that outgrow one in-memory index.
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
	// Layout is the backend in use ("single" or "sharded").
	Layout Layout
	// Keys is the number of distinct (workload, target, scheduler) bests;
	// Records the number of distinct journal records backing them (live,
	// including superseded ones not yet compacted away).
	Keys    int
	Records int
	// Appends counts append batches written; AppendedRecords the records in
	// them; LockAcquisitions the cross-process file locks taken to write them
	// — batching makes LockAcquisitions grow slower than AppendedRecords.
	Appends          int64
	AppendedRecords  int64
	LockAcquisitions int64
	// BatchesFlushed and BatchedRecords count the publish batcher's flushes
	// and the records they carried.
	BatchesFlushed int64
	BatchedRecords int64
	// Compactions counts shard journal rewrites (sharded layout only).
	Compactions int64
	// ResidentShards is how many shard indexes are currently in memory
	// (sharded layout only; bounded by shardCacheCap).
	ResidentShards int
}

// Backend is the registry's storage layer: everything below the publish
// batcher. Implementations are safe for concurrent use in-process and
// serialize cross-process writers behind advisory file locks; the append-only
// journal(s) they keep are authoritative, so any backend's state can be
// rebuilt from a replay.
type Backend interface {
	// Layout reports which layout the backend implements.
	Layout() Layout
	// Resolve returns the best known record for the exact key; an empty
	// scheduler matches any preset (best across all, ties to the
	// lexicographically smaller scheduler name). A miss re-checks durable
	// state, so records other processes published become visible without
	// reopening. The error reports an unreadable or damaged store — distinct
	// from a plain miss.
	Resolve(workload, target, scheduler string) (tunelog.Record, bool, error)
	// AppendBatch appends the batch under the cross-process lock(s),
	// skipping records the journal already holds, and reports per input
	// record whether it improved (or established) its key. The appended
	// lines reach the OS before it returns but are not fsynced: they survive
	// a process kill, while a machine crash can lose the latest appends
	// (torn-tail repair keeps that loss to a suffix of whole lines: a
	// half-written last line never merges into the next record). On a
	// mid-batch write failure the backend reloads from disk so in-memory
	// state never claims a record the journal did not get.
	AppendBatch(recs []tunelog.Record) ([]bool, error)
	// Len returns the number of keys with a best record.
	Len() int
	// Records returns the current best records sorted by key.
	Records() ([]tunelog.Record, error)
	// Stats snapshots the backend's counters.
	Stats() Stats
	// Close releases the backend.
	Close() error
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

// openBackend resolves the layout and opens it. A root journal.jsonl under the
// sharded layout is a v1 registry to migrate in place — or a migration a kill
// interrupted after shards/ was created and before the journal was retired,
// which would otherwise open as an empty sharded registry. The replay skips
// records a shard already holds, so both cases run migrate.
func openBackend(dir string, o Options) (Backend, error) {
	layout := o.Layout
	switch layout {
	case LayoutAuto:
		layout = detectLayout(dir)
	case LayoutSingle:
		if hasShards(dir) {
			return nil, fmt.Errorf("registry: %s holds a sharded registry; open it with the sharded (or auto) layout", dir)
		}
	case LayoutSharded:
	default:
		return nil, fmt.Errorf("registry: unknown layout %q", layout)
	}
	if layout == LayoutSingle {
		return openFileBackend(dir)
	}
	if _, err := os.Stat(filepath.Join(dir, journalFile)); err == nil {
		if err := migrate(dir); err != nil {
			return nil, err
		}
	}
	return openSharded(dir)
}
