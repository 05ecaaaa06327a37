//go:build !linux

package store

import "os"

// idOf gives no identity off Linux, so no stamp is clean there and every
// cached hit is read and hashed again.
func idOf(os.FileInfo) fileID { return fileID{} }

func statID(string) (fileID, bool) { return fileID{}, false }
