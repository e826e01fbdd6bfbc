// Package atomicfile writes files atomically: content lands in a temp file
// in the destination directory and is renamed into place, so readers never
// observe a partially written artifact and a crash mid-write leaves the
// previous version intact. Every durable artifact of the repo but the
// append-only journals — BENCH_*.json summaries, registry shard headers and
// compacted shards — goes through this path (a killed run must not truncate
// what a later run warm-starts from).
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data: write to a temp file in the
// same directory, fsync, then rename over the destination. On any error the
// destination is untouched and the temp file is removed.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("atomicfile: write %s: %w", path, err))
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(fmt.Errorf("atomicfile: chmod %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("atomicfile: sync %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: rename into %s: %w", path, err)
	}
	return nil
}
