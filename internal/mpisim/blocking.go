package mpisim

import (
	"runtime"
	"sync"
)

// RunBlocking is World.Run for a rank program written as a blocking Go
// function: the tests that drive the simulator by hand, and the
// tree-walking oracle in internal/vm/difftest, whose recursion cannot
// return at a blocking point. It is an adapter over the one scheduler, not
// a second one — a Stepper that gives each body a goroutine for its stack
// and runs it until the body parks or returns — and nothing that ships may
// call it (CI checks).
func (w *World) RunBlocking(body func(p *Proc)) (RunResult, error) {
	b := &blockingBodies{body: body, ranks: make([]blockingRank, w.np)}
	b.driver.Lock()
	w.blocking = b
	res, err := w.Run(b.step)
	w.blocking = nil
	// A failed run leaves bodies parked mid-operation; unwind them.
	b.unwinding = true
	for r := range b.ranks {
		if k := &b.ranks[r]; k.started && !k.finished {
			b.switchTo(k)
		}
	}
	return res, err
}

// blockingBodies hands control between the driver loop and the body
// goroutines. Exactly one of them runs at a time; each mutex is a binary
// semaphore, locked while its owner sleeps and unlocked by whoever hands
// control over (a Go mutex may be unlocked by another goroutine).
type blockingBodies struct {
	body      func(p *Proc)
	driver    sync.Mutex // the driver sleeps here while a body runs
	ranks     []blockingRank
	panicked  any  // a body's panic, carried to the driver to re-raise
	unwinding bool // the run is over: woken bodies exit instead of continuing
}

type blockingRank struct {
	turn              sync.Mutex // the body sleeps here while parked
	started, finished bool
}

// step is the Stepper: run rank p's body until it parks or returns.
func (b *blockingBodies) step(p *Proc) bool {
	k := &b.ranks[p.Rank]
	if k.started {
		b.switchTo(k)
	} else {
		k.started = true
		k.turn.Lock()
		//scalana:allow walltime the one goroutine in the simulator core: a blocking Go body needs a stack to sleep on; the mutex handoff keeps exactly one runnable
		go b.run(p, k)
		b.driver.Lock()
	}
	if rec := b.panicked; rec != nil {
		b.panicked = nil
		panic(rec) // on the driver, where World.Run turns it into the rank's error
	}
	return k.finished
}

// switchTo wakes a parked body and sleeps until it hands control back.
func (b *blockingBodies) switchTo(k *blockingRank) {
	k.turn.Unlock()
	b.driver.Lock()
}

func (b *blockingBodies) run(p *Proc, k *blockingRank) {
	defer func() {
		b.panicked = recover() // nil after a return or an unwinding Goexit
		k.finished = true
		b.driver.Unlock()
	}()
	b.body(p)
}

// yield parks the calling body: control returns to the driver, which
// completes the operation before it steps the rank again.
func (b *blockingBodies) yield(p *Proc) {
	k := &b.ranks[p.Rank]
	b.driver.Unlock()
	k.turn.Lock()
	if b.unwinding {
		runtime.Goexit()
	}
}
