// Package store is the disk-backed, content-addressed result store behind
// gscalar-serve (and the infrastructure it shares with the rest of the
// repository: atomic file writes and singleflight call deduplication).
//
// Each entry is one completed simulation point, addressed by the canonical
// key "configHash|scale=N|arch/workload" (experiments.PointKey), derived
// from Config.Hash(), so two requests denote the same entry iff they denote
// the same simulation input. An experiment suite keys its per-suite memo the
// same way, appending a variant label for its ablation points, and
// deduplicates concurrent runs with this package's Group. Entries are
// single JSON files named by the SHA-256 of their key, written atomically
// (temp file + rename); the in-memory index is rebuilt by scanning the
// directory on Open, so a restarted — or crashed — server re-serves every
// point that completed before it went down without re-simulating anything.
// All simulation loops are deterministic, which is what makes a stored blob
// equivalent to a fresh run: the stored Result bytes are the byte-identical
// answer a new simulation of that key would produce.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Key builds the canonical store key of one simulation point. The config
// hash must be the canonical content hash of the normalized configuration
// (gscalar.Config.Hash after Normalize); scale is the workload scale factor,
// arch and workload the short names the CLIs use.
func Key(configHash string, scale int, arch, workload string) string {
	return configHash + "|scale=" + strconv.Itoa(scale) + "|" + arch + "/" + workload
}

// Entry is one stored simulation point. Result holds the exact JSON bytes of
// the gscalar.Result — kept raw so a served repeat request is byte-identical
// to the run that produced it — and Metrics optionally holds the telemetry
// blob collected alongside it.
type Entry struct {
	Key        string          `json:"key"`
	ConfigHash string          `json:"config_hash"`
	Arch       string          `json:"arch"`
	Workload   string          `json:"workload"`
	Scale      int             `json:"scale"`
	Result     json.RawMessage `json:"result"`
	Metrics    json.RawMessage `json:"metrics,omitempty"`
}

// Store is a content-addressed collection of Entries in one directory. It is
// safe for concurrent use.
type Store struct {
	dir string

	mu    sync.RWMutex
	index map[string]string // key -> file path
}

// Open opens (creating if necessary) the store rooted at dir and rebuilds
// the key index by scanning it. Leftover temporary files from a crashed
// writer are removed; files that do not decode as entries are skipped — a
// foreign or corrupt file can hide a key but never corrupt served results,
// because entries are only ever written whole (see AtomicWrite).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, index: make(map[string]string)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // crashed writer's leftovers
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		path := filepath.Join(dir, name)
		e, err := readEntry(path)
		if err != nil || e.Key == "" {
			continue // not a store entry; leave it alone but serve nothing from it
		}
		s.index[e.Key] = path
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns the stored keys, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Contains reports whether key is stored, without reading the entry.
func (s *Store) Contains(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Get reads the entry stored under key. ok is false when the key is absent;
// a read or decode failure of a present key is returned as an error.
func (s *Store) Get(key string) (Entry, bool, error) {
	s.mu.RLock()
	path, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return Entry{}, false, nil
	}
	e, err := readEntry(path)
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: reading %s: %w", path, err)
	}
	return e, true, nil
}

// Put stores e under e.Key, atomically: concurrent readers observe either
// the previous entry or the complete new one, never a partial file. The
// entry file is named by the SHA-256 of the key, so the layout is
// content-addressed and a re-Put of the same key overwrites in place.
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("store: entry has no key")
	}
	path := filepath.Join(s.dir, fileName(e.Key))
	// Plain (compact) encoding: an indenting encoder would reformat the raw
	// Result/Metrics bytes, breaking the byte-identity contract between a
	// stored blob and the marshal that produced it.
	err := AtomicWrite(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(e)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[e.Key] = path
	s.mu.Unlock()
	return nil
}

// entryExt is the store entry file suffix.
const entryExt = ".json"

// fileName derives the content-addressed file name of a key.
func fileName(key string) string {
	return hashHex(key) + entryExt
}

func readEntry(path string) (Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, err
	}
	return e, nil
}
