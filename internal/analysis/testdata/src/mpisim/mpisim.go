// Package mpisim exercises the walltime analyzer: the directory name
// matches a restricted simulator-core package segment, so wall-clock
// reads, channel machinery, go statements and condition variables are
// forbidden here.
package mpisim

import (
	"sync"
	"time"
)

// virtualDelay is legal: time.Duration is a unit, not a clock.
func virtualDelay(d time.Duration) float64 { return d.Seconds() }

func wallClock() time.Time {
	return time.Now() // want `time.Now in package mpisim`
}

func sleeps() {
	time.Sleep(1) // want `time.Sleep in package mpisim`
}

func makesChannel() {
	ch := make(chan int) // want `channel type in package mpisim`
	ch <- 1              // want `channel send in package mpisim`
	<-ch                 // want `channel receive in package mpisim`
}

func selects(ch chan int) { // want `channel type in package mpisim`
	select { // want `select in package mpisim`
	case <-ch: // want `channel receive in package mpisim`
	default:
	}
}

func spawns(f func()) {
	go f() // want `go statement in package mpisim`
	//scalana:allow walltime the fixture's stand-in for the adapter's one justified goroutine
	go f()
}

// A mutex is legal: the blocking-body adapter hands control over with two.
type handoff struct {
	mu   sync.Mutex
	cond sync.Cond // want `sync.Cond in package mpisim`
}

func conds(mu *sync.Mutex) *sync.Cond { // want `sync.Cond in package mpisim`
	return sync.NewCond(mu) // want `sync.NewCond in package mpisim`
}
