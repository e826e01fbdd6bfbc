package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"harl/internal/atomicfile"
	"harl/internal/tunelog"
)

// shardCount is the number of journal shards in the sharded (v2) layout.
const shardCount = 256

// shardHeaderFile and shardLockFile are the per-shard files beside each
// shard's journal.jsonl:
//
//	header.json  {"v":1,"generation":G,"keys":K,"records":N} — the generation
//	             counter lets readers detect a compaction rewrite that a
//	             size+mtime stamp cannot (a rewrite can preserve both); the
//	             cached counts make opening a large registry cheap (summing
//	             256 headers instead of replaying every shard journal). The
//	             journal stays authoritative: counts are advisory and are
//	             corrected whenever the shard index is (re)built.
//	lock         the shard's advisory write lock. It is a separate,
//	             never-renamed file because compaction replaces the journal
//	             via rename — a flock held on the replaced journal inode
//	             would no longer exclude anyone.
const (
	shardHeaderFile = "header.json"
	shardLockFile   = "lock"
)

// shardHeaderVersion is the header.json format version.
const shardHeaderVersion = 1

// shardCacheCap is how many shard indexes stay resident (LRU eviction beyond
// it). A shard is rewritten down to its per-key bests (Force heals preserved)
// when it holds at least compactMinRecords records and more than
// compactFactor times as many records as live keys. The minimum sits below
// the ~80 records a network tune logs per subgraph, so an imported network
// journal compacts as it lands and a later hit replays one line per key.
const (
	shardCacheCap     = 64
	compactMinRecords = 64
	compactFactor     = 4.0
)

type shardHeader struct {
	V          int   `json:"v"`
	Generation int64 `json:"generation"`
	Keys       int   `json:"keys"`
	Records    int   `json:"records"`
}

func readShardHeader(dir string) (shardHeader, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardHeaderFile))
	if err != nil {
		if os.IsNotExist(err) {
			return shardHeader{V: shardHeaderVersion}, nil
		}
		return shardHeader{}, fmt.Errorf("registry: read shard header: %w", err)
	}
	var h shardHeader
	if err := json.Unmarshal(data, &h); err != nil {
		// A torn header is recoverable state, not data loss: treat it as
		// generation-unknown so the next access reloads from the journal.
		return shardHeader{V: shardHeaderVersion, Generation: -1}, nil
	}
	return h, nil
}

func writeShardHeader(dir string, h shardHeader) error {
	h.V = shardHeaderVersion
	data, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("registry: marshal shard header: %w", err)
	}
	return atomicfile.WriteFile(filepath.Join(dir, shardHeaderFile), append(data, '\n'), 0o644)
}

// shardStamp identifies a shard's durable state: the journal's cheap file
// stamp plus the header's generation counter. Appends grow the file stamp;
// compaction rewrites the journal — which can land on the same size and
// mtime — and bumps the generation, so readers always detect it.
type shardStamp struct {
	gen int64
	fs  fileStamp
}

// shardIdx is one shard's resident index — the same best/seen/size state the
// single-file backend keeps globally, scoped to the shard so cold shards can
// be evicted.
type shardIdx struct {
	best map[string]tunelog.Record
	seen map[tunelog.Record]bool
	size int
}

type shard struct {
	id  string // "00".."ff"
	dir string

	idx     *shardIdx // nil when cold (never loaded, or LRU-evicted)
	stamp   shardStamp
	lastUse atomic.Int64
	// keys/records are cached counts (from the header at open, from the
	// index after loads/appends) so Len works without residency.
	keys    int
	records int
}

func (s *shard) journalPath() string { return filepath.Join(s.dir, journalFile) }
func (s *shard) lockPath() string    { return filepath.Join(s.dir, shardLockFile) }

// shardedBackend is the v2 layout: records route to one of shardCount shard
// journals by a hash of the workload fingerprint, so every key's records —
// and therefore every Resolve, including the any-scheduler scan — live in
// exactly one shard. Each shard is its own mini registry: an authoritative
// append-only journal, a resident index built on demand (bounded by an LRU),
// a generation-stamped header, and an advisory lock file serializing
// cross-process writers. Shards dominated by superseded records are
// compacted in place (see compact.go).
type shardedBackend struct {
	dir string
	// cacheCap bounds the resident shard indexes; compactMin/compactFactor
	// gate compaction (see shouldCompactLocked). Fields, not constants, so
	// tests can shrink them.
	cacheCap      int
	compactMin    int
	compactFactor float64

	mu       sync.RWMutex
	shards   [shardCount]*shard
	resident int
	useClock atomic.Int64
	stats    Stats

	// openJournal opens a shard journal for an externally-locked append;
	// tests substitute a failing writer.
	openJournal func(path string) (*tunelog.Journal, error)
}

func openSharded(dir string) (*shardedBackend, error) {
	root := filepath.Join(dir, shardsDir)
	// Creating the shards/ marker makes the layout choice sticky for later
	// auto-detecting opens; like the registry directory itself it is the one
	// write opening is allowed.
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create shards dir: %w", err)
	}
	b := &shardedBackend{
		dir:           dir,
		cacheCap:      shardCacheCap,
		compactMin:    compactMinRecords,
		compactFactor: compactFactor,
		openJournal:   tunelog.OpenJournalUnlocked,
	}
	b.stats.Layout = LayoutSharded
	for i := range b.shards {
		id := fmt.Sprintf("%02x", i)
		b.shards[i] = &shard{id: id, dir: filepath.Join(root, id)}
	}
	// Seed the cached counts from the shard headers — 256 small reads
	// instead of replaying every journal, so opening stays cheap no matter
	// how many records the registry holds.
	for _, s := range b.shards {
		h, err := readShardHeader(s.dir)
		if err != nil {
			return nil, err
		}
		s.keys, s.records = h.Keys, h.Records
	}
	return b, nil
}

func (b *shardedBackend) Layout() Layout { return LayoutSharded }

// shardFor routes a workload fingerprint to its shard. The route hashes the
// fingerprint instead of slicing a literal prefix: fingerprints embed the
// subgraph name ("gemm@…"), so a raw prefix would pile whole operator
// families into a handful of shards.
func (b *shardedBackend) shardFor(workload string) *shard {
	h := fnv.New32a()
	h.Write([]byte(workload))
	return b.shards[h.Sum32()&(shardCount-1)]
}

func (b *shardedBackend) touch(s *shard) {
	s.lastUse.Store(b.useClock.Add(1))
}

// stampShardLocked reads the shard's current durable stamp. Caller holds at
// least the read lock (it only touches files).
func (s *shard) durableStamp() (shardStamp, error) {
	h, err := readShardHeader(s.dir)
	if err != nil {
		return shardStamp{}, err
	}
	return shardStamp{gen: h.Generation, fs: stampOf(s.journalPath())}, nil
}

// loadShardLocked (re)builds one shard's index from its journal, updating the
// cached counts and enforcing the residency bound. Caller holds the write
// lock.
func (b *shardedBackend) loadShardLocked(s *shard) error {
	stamp, err := s.durableStamp()
	if err != nil {
		return err
	}
	idx := &shardIdx{best: make(map[string]tunelog.Record), seen: make(map[tunelog.Record]bool)}
	if _, statErr := os.Stat(s.journalPath()); statErr == nil {
		db, err := tunelog.LoadFile(s.journalPath())
		if err != nil {
			return err
		}
		for _, rec := range db.Records() {
			idx.seen[rec] = true
			absorb(idx.best, rec)
		}
		idx.size = db.Size()
	} else if !os.IsNotExist(statErr) {
		return fmt.Errorf("registry: stat shard journal: %w", statErr)
	}
	if s.idx == nil {
		b.resident++
	}
	s.idx = idx
	s.stamp = stamp
	s.keys = len(idx.best)
	s.records = idx.size
	b.touch(s)
	b.evictLocked(s)
	return nil
}

// evictLocked drops least-recently-used shard indexes until the residency
// bound holds, never evicting keep (the shard being served right now). The
// dropped state is only an index — the shard journal remains authoritative
// and the next access rebuilds it.
func (b *shardedBackend) evictLocked(keep *shard) {
	for b.resident > b.cacheCap {
		var victim *shard
		for _, s := range b.shards {
			if s == keep || s.idx == nil {
				continue
			}
			if victim == nil || s.lastUse.Load() < victim.lastUse.Load() {
				victim = s
			}
		}
		if victim == nil {
			return
		}
		victim.idx = nil
		b.resident--
	}
}

// freshLocked reports whether the shard's resident index still matches its
// durable state. Caller holds a lock.
func (s *shard) freshLocked() bool {
	if s.idx == nil {
		return false
	}
	stamp, err := s.durableStamp()
	return err == nil && stamp == s.stamp
}

func (b *shardedBackend) Resolve(workload, target, scheduler string) (tunelog.Record, bool, error) {
	s := b.shardFor(workload)
	b.mu.RLock()
	if s.idx != nil {
		if rec, ok := resolveBest(s.idx.best, workload, target, scheduler); ok {
			b.touch(s)
			b.mu.RUnlock()
			return rec, true, nil
		}
	}
	b.mu.RUnlock()
	// Cold shard, or a miss: (re)load when the durable state moved — another
	// process may have published or compacted since our last look.
	b.mu.Lock()
	defer b.mu.Unlock()
	if !s.freshLocked() {
		if err := b.loadShardLocked(s); err != nil {
			return tunelog.Record{}, false, err
		}
	}
	rec, ok := resolveBest(s.idx.best, workload, target, scheduler)
	b.touch(s)
	return rec, ok, nil
}

// AppendBatch groups the batch by shard and appends each group under its
// shard's lock: one lock acquisition, one journal open and one header write
// per touched shard, however many records the batch carries.
func (b *shardedBackend) AppendBatch(recs []tunelog.Record) ([]bool, error) {
	improved := make([]bool, len(recs))
	groups := make(map[*shard][]int)
	for i, rec := range recs {
		s := b.shardFor(rec.Workload)
		groups[s] = append(groups[s], i)
	}
	order := make([]*shard, 0, len(groups))
	for s := range groups {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range order {
		if err := b.appendShardLocked(s, recs, groups[s], improved); err != nil {
			return nil, err
		}
	}
	return improved, nil
}

// appendShardLocked appends one shard's slice of the batch under the shard's
// cross-process lock. Caller holds the backend write lock.
func (b *shardedBackend) appendShardLocked(s *shard, recs []tunelog.Record, idxs []int, improved []bool) (err error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("registry: create shard dir: %w", err)
	}
	flock, err := tunelog.AcquireFileLock(s.lockPath())
	if err != nil {
		return err
	}
	// A failed lock release means the fd leaked and the shard may stay locked
	// for the process lifetime — surface it unless an append error already won.
	defer func() {
		if cerr := flock.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("registry: release shard %s lock: %w", s.id, cerr)
		}
	}()
	b.stats.LockAcquisitions++
	// Load under the lock: while we waited, another process may have appended
	// or compacted — the shard is frozen to other writers now, so what we
	// load is exactly what our stamp will describe.
	if !s.freshLocked() {
		if err := b.loadShardLocked(s); err != nil {
			return err
		}
	}
	fresh := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if !s.idx.seen[recs[i]] {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		b.touch(s)
		return nil
	}
	jr, err := b.openJournal(s.journalPath())
	if err != nil {
		return err
	}
	for _, i := range fresh {
		if err := jr.Append(recs[i]); err != nil {
			return errors.Join(b.failShardAppendLocked(s, err), jr.Close())
		}
		s.idx.seen[recs[i]] = true
		s.idx.size++
		improved[i] = absorb(s.idx.best, recs[i])
	}
	if err := jr.Close(); err != nil {
		return b.failShardAppendLocked(s, err)
	}
	s.stamp.fs = stampOf(s.journalPath())
	s.keys = len(s.idx.best)
	s.records = s.idx.size
	b.stats.Appends++
	b.stats.AppendedRecords += int64(len(fresh))
	b.touch(s)
	if b.shouldCompactLocked(s) {
		// compactShardLocked writes the header itself (the generation bump
		// must be durable before the journal is replaced).
		return b.compactShardLocked(s)
	}
	return writeShardHeader(s.dir, shardHeader{Generation: s.stamp.gen, Keys: s.keys, Records: s.records})
}

// failShardAppendLocked mirrors the single-file backend's append-failure
// contract: the in-memory shard state may claim records the journal never
// got, so it is rebuilt from disk before the error is returned — a
// retry of the same publish must re-append, not be skipped as a duplicate.
func (b *shardedBackend) failShardAppendLocked(s *shard, err error) error {
	if lerr := b.loadShardLocked(s); lerr != nil {
		if s.idx != nil {
			s.idx = nil // force a reload on next access
			b.resident--
		}
		return fmt.Errorf("registry: shard %s append failed (%w) and reload failed: %v", s.id, err, lerr)
	}
	return fmt.Errorf("registry: shard %s append: %w", s.id, err)
}

func (b *shardedBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, s := range b.shards {
		n += s.keys
	}
	return n
}

func (b *shardedBackend) Records() ([]tunelog.Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	merged := make(map[string]tunelog.Record)
	for _, s := range b.shards {
		if _, err := os.Stat(s.journalPath()); os.IsNotExist(err) {
			continue
		}
		if !s.freshLocked() {
			if err := b.loadShardLocked(s); err != nil {
				return nil, err
			}
		}
		for k, rec := range s.idx.best {
			merged[k] = rec
		}
	}
	return sortedBest(merged), nil
}

func (b *shardedBackend) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s := b.stats
	s.ResidentShards = b.resident
	for _, sh := range b.shards {
		s.Keys += sh.keys
		s.Records += sh.records
	}
	return s
}

func (b *shardedBackend) Close() error { return nil }
