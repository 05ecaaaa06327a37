// Package slab is the memory policy the simulator (mpisim) and the VM
// share for the slices a run carves its ranks' state from. A finished run
// leaves them for the next run to reuse: a slice that holds the next job
// is resliced, not allocated again. While it waits it is cleared, so that
// it keeps nothing of the finished run alive, and counted, so that its
// keeper can bound what it holds.
package slab

import "unsafe"

// Resize returns s with length n: s itself when it has the room, else a
// new zero slice. Slots a reused s holds are the caller's to write.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Bytes returns the size of the array s slices.
func Bytes[T any](s []T) int {
	var t T
	return cap(s) * int(unsafe.Sizeof(t))
}

// maxChunk is the most slots a chunk of a Slab opens with after its
// first.
const maxChunk = 64

// Slab hands out Ts that keep their address for the rest of the run. A
// run's first chunk has the slots its caller asks for — the simulator asks
// for np, since a small world uses a few dozen channels, not hundreds —
// and each later one twice the previous one's, up to maxChunk. A chunk
// never grows past its capacity, so the pointers Carve hands out stay
// valid.
//
// Reset keeps the first chunk, enlarged to what the last run carved in
// all, so that a rerun of a job carves every slot from it. The VM's arena
// follows the same policy; the two must stay alike, or a world and the
// machines on it would hold different shares of a rerun.
type Slab[T any] struct {
	first, cur []T
	carved     int // slots carved since the reset
}

// Carve takes one T out of the current chunk, starting a chunk of first
// slots, or a later one, when it is full. The T may hold what an earlier
// run left in it: the caller writes all of it.
func (s *Slab[T]) Carve(first int) *T {
	if n := cap(s.cur); len(s.cur) == n {
		size := first
		if n > 0 {
			size = min(2*n, maxChunk)
		}
		s.cur = make([]T, 0, size)
		if s.carved == 0 {
			s.first = s.cur
		}
	}
	s.carved++
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Reset makes the first chunk the current one again.
func (s *Slab[T]) Reset() {
	if s.carved > cap(s.first) {
		s.first = make([]T, 0, s.carved)
	}
	s.cur, s.carved = s.first[:0], 0
}

// Idle readies s to wait for its next Reset: it keeps the first chunk
// alone, cleared, and returns the bytes s holds once that Reset is done.
func (s *Slab[T]) Idle() int {
	clear(s.first[:cap(s.first)])
	s.cur = nil
	var t T
	return max(s.carved, cap(s.first)) * int(unsafe.Sizeof(t))
}
