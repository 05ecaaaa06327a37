package store

import (
	"os"
	"syscall"
)

// idOf reads a file's identity from its stat: ctime is Linux's, from
// syscall.Stat_t.
func idOf(info os.FileInfo) fileID {
	st, ok := info.Sys().(*syscall.Stat_t)
	if !ok {
		return fileID{}
	}
	return idOfStat(st)
}

// statID stats path for its identity, into a Stat_t on the stack where
// os.Stat would put a FileInfo on the heap: a warm hit's one stat(2).
func statID(path string) (fileID, bool) {
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		return fileID{}, false
	}
	return idOfStat(&st), true
}

func idOfStat(st *syscall.Stat_t) fileID {
	return fileID{dev: uint64(st.Dev), ino: uint64(st.Ino), size: st.Size, mtime: st.Mtim.Nano(), ctime: st.Ctim.Nano()}
}
