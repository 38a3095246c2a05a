// Package statefile is the one persistence primitive behind the small
// state files that processes sharing a directory read and extend: the
// algorithm-tuner cache (internal/blas) and the tenant usage ledger
// (internal/serve/tenant). Each caller keeps its own validity check and
// merge rule; this package owns the locking, the write and the rename.
package statefile

import (
	"os"
	"path/filepath"
	"syscall"
)

// Update replaces the file at path with merge(current), where current
// is the file's present contents (nil when it is missing or
// unreadable). An exclusive flock on path's directory, created if
// needed, spans the read, the merge and the rename, so concurrent
// Updates from any goroutine or process sharing the directory
// serialise instead of dropping each other's writes. The new contents
// go to a synced temp file in the same directory and are installed by
// rename, so readers never see a torn file; the directory is synced
// after the rename, so the installed file survives a crash. The lock is
// on the directory itself, so nothing but path is left behind.
func Update(path string, merge func(current []byte) ([]byte, error)) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // releases the lock
	if err := syscall.Flock(int(d.Fd()), syscall.LOCK_EX); err != nil {
		return &os.PathError{Op: "flock", Path: dir, Err: err}
	}
	current, _ := os.ReadFile(path) // missing or unreadable merges as empty
	var tmp *os.File
	data, err := merge(current)
	if err == nil {
		tmp, err = os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync() // the rename must not install an unwritten file after a crash
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// The rename is a directory entry: sync the directory too, or a
		// crash can lose the installed file.
		if err = os.Rename(tmp.Name(), path); err == nil {
			err = d.Sync()
		}
	}
	if err != nil {
		os.Remove(tmp.Name()) // a no-op once the rename has happened
	}
	return err
}
