package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemStore is an in-memory Store for tests and embedded use. Safe for
// concurrent use.
type MemStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string][]byte)}
}

// Save implements Store.
func (m *MemStore) Save(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
	return nil
}

// Load implements Store.
func (m *MemStore) Load(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, Errf(CodeNotExist, "load", "%s", name)
	}
	return append([]byte(nil), data...), nil
}

// List implements Store.
func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Store.
func (m *MemStore) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// OpenAppend implements Store.
func (m *MemStore) OpenAppend(name string, truncateTo int64) (AppendFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.files[name]
	if truncateTo >= 0 && truncateTo < int64(len(cur)) {
		cur = cur[:truncateTo]
	}
	// Materialize the (possibly truncated, possibly empty) file now, like
	// FileStore's O_CREATE open does — a freshly rotated WAL must List()
	// even before its first append.
	m.files[name] = append([]byte(nil), cur...)
	return &memAppend{store: m, name: name}, nil
}

// Corrupt flips one bit of a stored file — a test hook for exercising the
// CRC guards.
func (m *MemStore) Corrupt(name string, byteOffset int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return Errf(CodeNotExist, "corrupt", "%s", name)
	}
	if byteOffset < 0 || byteOffset >= len(data) {
		return Errf(CodeMalformed, "corrupt", "offset %d out of %d bytes", byteOffset, len(data))
	}
	data[byteOffset] ^= 0x40
	return nil
}

// memAppend appends to the stored file in place, under the store's lock,
// mimicking an OS page cache; Sync is a no-op. Load hands out copies, so
// growing the stored slice is invisible to readers.
type memAppend struct {
	store *MemStore
	name  string
}

func (a *memAppend) Append(p []byte) error {
	a.store.mu.Lock()
	a.store.files[a.name] = append(a.store.files[a.name], p...)
	a.store.mu.Unlock()
	return nil
}

func (a *memAppend) Sync() error  { return nil }
func (a *memAppend) Close() error { return nil }

// FileStore is a directory-backed Store. Save writes a temp file in the
// same directory, fsyncs it, renames it over the target and fsyncs the
// directory — the standard crash-safe atomic-replace sequence.
type FileStore struct {
	dir string
}

// NewFileStore opens (creating if needed) a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// OpenFileStore opens an existing directory-backed store, returning a
// typed CodeNotExist error when the directory is missing — the daemon's
// load-on-start path distinguishes "no data yet" from real failures.
func OpenFileStore(dir string) (*FileStore, error) {
	fi, err := os.Stat(dir)
	if os.IsNotExist(err) {
		return nil, Errf(CodeNotExist, "open store", "%s", dir)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: open data dir: %w", err)
	}
	if !fi.IsDir() {
		return nil, Errf(CodeMalformed, "open store", "%s is not a directory", dir)
	}
	return &FileStore{dir: dir}, nil
}

// path maps a store name onto the directory, rejecting traversal.
func (f *FileStore) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", Errf(CodeMalformed, "store path", "invalid name %q", name)
	}
	return filepath.Join(f.dir, name), nil
}

// Save implements Store with write-temp, fsync, rename, fsync-dir.
func (f *FileStore) Save(name string, data []byte) error {
	path, err := f.path(name)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(f.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: save %s: %w", name, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("persist: save %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("persist: save %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: save %s: %w", name, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: save %s: %w", name, err)
	}
	return f.syncDir()
}

// syncDir fsyncs the directory so renames survive a crash.
func (f *FileStore) syncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; the rename itself is
		// still atomic, so degrade silently rather than failing the save.
		return nil
	}
	return nil
}

// Load implements Store.
func (f *FileStore) Load(name string) ([]byte, error) {
	path, err := f.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, Errf(CodeNotExist, "load", "%s", name)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", name, err)
	}
	return data, nil
}

// List implements Store, skipping leftover temp files.
func (f *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Store.
func (f *FileStore) Remove(name string) error {
	path, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: remove %s: %w", name, err)
	}
	return nil
}

// OpenAppend implements Store.
func (f *FileStore) OpenAppend(name string, truncateTo int64) (AppendFile, error) {
	path, err := f.path(name)
	if err != nil {
		return nil, err
	}
	fl, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open append %s: %w", name, err)
	}
	if truncateTo >= 0 {
		if err := fl.Truncate(truncateTo); err != nil {
			fl.Close()
			return nil, fmt.Errorf("persist: truncate %s: %w", name, err)
		}
	}
	if _, err := fl.Seek(0, 2); err != nil {
		fl.Close()
		return nil, fmt.Errorf("persist: seek %s: %w", name, err)
	}
	return &fileAppend{f: fl}, nil
}

type fileAppend struct {
	f *os.File
}

func (a *fileAppend) Append(p []byte) error {
	_, err := a.f.Write(p)
	return err
}

func (a *fileAppend) Sync() error { return a.f.Sync() }

func (a *fileAppend) Close() error {
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}
