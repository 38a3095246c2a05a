package blas

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/statefile"
)

// TunerCache makes AlgoTuner verdicts durable across process starts: a
// versioned JSON file of key → winning-algorithm entries, valid only
// for the (host, GOMAXPROCS) that measured them — a tuning verdict is a
// statement about a machine, not about the model. Anything that breaks
// that provenance (missing file, corrupt JSON, version bump, different
// host or thread budget) degrades to an empty cache and the process
// simply re-tunes; a stale cache must never be an error.
type TunerCache struct {
	mu      sync.Mutex
	path    string
	host    string
	procs   int
	entries map[string]string
	loaded  int
	dirty   bool
}

// tunerCacheVersion is bumped whenever the entry key schema or file
// layout changes; old files are discarded, not migrated.
const tunerCacheVersion = 1

const tunerCacheFileName = "algotuner.json"

// tunerCacheFile is the on-disk layout.
type tunerCacheFile struct {
	Version    int               `json:"version"`
	Host       string            `json:"host"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Entries    map[string]string `json:"entries"`
}

// tunerCacheHostID identifies the measuring machine. Hostname plus
// GOOS/GOARCH is deliberately coarse: it catches a cache directory
// shared over NFS between machines without trying to fingerprint CPUs.
func tunerCacheHostID() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s/%s/%s", host, runtime.GOOS, runtime.GOARCH)
}

// OpenTunerCache opens (creating the directory if needed) the tuner
// cache rooted at dir. A readable, version-/host-/GOMAXPROCS-matching
// file seeds the cache; every other state — no file yet, unparseable
// file, foreign provenance — yields an empty cache with no error. The
// only failure is not being able to create dir itself.
func OpenTunerCache(dir string) (*TunerCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blas: tuner cache dir: %w", err)
	}
	c := &TunerCache{
		path:    filepath.Join(dir, tunerCacheFileName),
		host:    tunerCacheHostID(),
		procs:   runtime.GOMAXPROCS(0),
		entries: map[string]string{},
	}
	data, _ := os.ReadFile(c.path)
	if f, ok := c.decode(data); ok {
		c.entries = f.Entries
		c.loaded = len(f.Entries)
	}
	return c, nil
}

// decode parses cache file contents if they are valid for this
// process' provenance; any defect (none read, corrupt, foreign) reads
// as "no cache".
func (c *TunerCache) decode(data []byte) (tunerCacheFile, bool) {
	var f tunerCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return f, false
	}
	if f.Version != tunerCacheVersion || f.Host != c.host || f.GOMAXPROCS != c.procs || f.Entries == nil {
		return f, false
	}
	return f, true
}

// Lookup returns the cached winner for key, if any.
func (c *TunerCache) Lookup(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// Store records a freshly timed winner for key.
func (c *TunerCache) Store(key, algo string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == algo {
		return
	}
	c.entries[key] = algo
	c.dirty = true
}

// Len returns the number of entries currently held.
func (c *TunerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Loaded returns how many entries were seeded from disk at open time —
// the warm-start signal the serving binary logs and CI pins.
func (c *TunerCache) Loaded() int { return c.loaded }

// Path returns the cache file path.
func (c *TunerCache) Path() string { return c.path }

// Save persists the cache and reports whether it wrote. A clean cache
// is a no-op, so warm starts leave the file's mtime alone. The write
// goes through statefile.Update: under its directory lock it re-reads
// and merges the current on-disk entries (ours win), so concurrent
// processes sharing a cache directory converge instead of dropping
// each other's verdicts, and the rename keeps every reader seeing a
// complete file.
func (c *TunerCache) Save() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return false, nil
	}
	err := statefile.Update(c.path, func(current []byte) ([]byte, error) {
		if f, ok := c.decode(current); ok {
			for k, v := range f.Entries {
				if _, mine := c.entries[k]; !mine {
					c.entries[k] = v
				}
			}
		}
		data, err := json.MarshalIndent(tunerCacheFile{
			Version:    tunerCacheVersion,
			Host:       c.host,
			GOMAXPROCS: c.procs,
			Entries:    c.entries,
		}, "", "  ")
		return append(data, '\n'), err
	})
	if err != nil {
		return false, fmt.Errorf("blas: tuner cache save: %w", err)
	}
	c.dirty = false
	return true, nil
}
