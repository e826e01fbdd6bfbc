package registry

import (
	"bytes"
	"fmt"

	"harl/internal/atomicfile"
	"harl/internal/tunelog"
)

// Shard compaction. A shard journal is append-only, so a hot key accumulates
// one record per improvement (plus every no-op publish that was fresh when
// appended); over time superseded records dominate and every cold load pays
// to replay them. Compaction rewrites the shard journal keeping only the
// current best record per key — Force heals included verbatim, so a replay
// of the compacted journal reproduces the live best map record for record —
// and bumps the shard's generation counter so other processes detect the
// rewrite even when the new file lands on the same size and mtime as the old
// one (the case a plain file stamp cannot see).
//
// Ordering: the header (carrying the bumped generation) is made durable
// BEFORE the journal is replaced. A crash between the two leaves a bumped
// generation over the old journal — readers just reload the same records —
// whereas the reverse order could leave a rewritten journal under the old
// generation, which a size+mtime collision would make invisible.

// shouldCompact reports whether the shard's journal is dominated by
// superseded records: at least compactMin records, and more than
// compactFactor times as many records as live keys.
func (r *Registry) shouldCompact(j *journal) bool {
	return j.records >= r.compactMin && float64(j.records) > r.compactFactor*float64(j.keys)
}

// compact rewrites the shard journal down to its best records. Caller holds
// r.idx exclusively AND the shard's cross-process file lock (compaction
// rename-replaces the journal; the lock file, which is never renamed, is
// what keeps other writers out).
func (j *journal) compact() error {
	kept := sortedBest(j.best)
	var buf bytes.Buffer
	for _, rec := range kept {
		line, err := rec.MarshalLine()
		if err != nil {
			return fmt.Errorf("registry: compact %s: %w", j.path(), err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	gen := j.stamp.gen + 1
	if err := writeShardHeader(j.dir, shardHeader{Generation: gen, Keys: len(kept), Records: len(kept)}); err != nil {
		return err
	}
	// atomicfile semantics (temp file, fsync, rename): readers racing the
	// compaction observe either the old journal or the new one, never a
	// truncated mix.
	if err := atomicfile.WriteFile(j.path(), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("registry: compact %s: %w", j.path(), err)
	}
	// The bests stay valid — compaction never changes them — but the dedup
	// set and counts now describe the rewritten journal.
	j.seen = make(map[tunelog.Record]bool, len(kept))
	for _, rec := range kept {
		j.seen[rec] = true
	}
	j.stamp = journalStamp{gen: gen, fs: stampOf(j.path())}
	j.keys, j.records = len(kept), len(kept)
	return nil
}
