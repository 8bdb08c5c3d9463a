// Package fsutil holds the small filesystem idioms the artifact plane
// relies on. The one that matters is atomic file replacement: model
// artifacts are the unit of deployment, and a killed writer must never
// leave a truncated artifact where a loader will find it.
package fsutil

import (
	"os"
	"path/filepath"
	"strings"
)

// tempMark separates a temporary file's target name from the random
// suffix os.CreateTemp appends: WriteFileAtomic writes path's bytes to
// "." + base(path) + tempMark + suffix in path's directory.
const tempMark = ".tmp"

// TempTarget reports whether name is the name of a temporary file
// WriteFileAtomic creates, and returns the base name it was to be
// renamed to. A temporary file outlives WriteFileAtomic only when its
// writer was killed, so an owner that serialises its writes can remove
// the ones it finds.
func TempTarget(name string) (string, bool) {
	i := strings.LastIndex(name, tempMark)
	if i < 2 || name[0] != '.' || i+len(tempMark) == len(name) {
		return "", false
	}
	return name[1:i], true
}

// WriteFileAtomic writes data to path so that readers observe either the
// old content or the new content, never a partial write: the bytes go to
// a temporary file in the target's directory (same filesystem, so the
// final rename cannot degrade to a copy) which is fsynced, closed and
// renamed over path. The directory is fsynced after the rename, so the
// new name survives a power loss once WriteFileAtomic returns nil. On an
// error before the rename the temporary file is removed and the
// destination is untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+tempMark+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			_ = os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = "" // renamed away; nothing to clean up
	return SyncDir(dir)
}

// SyncDir fsyncs the directory dir, making the names created, renamed
// or removed in it durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
