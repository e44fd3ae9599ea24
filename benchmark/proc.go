package main

import (
	"os"
	"sync"
	"time"
)

// children are the child processes still running. When the benchmark is
// signalled it kills and reaps each of them before it exits, so no
// daemon outlives a run; Pdeathsig only covers the benchmark dying
// without a chance to clean up.
var children = struct {
	sync.Mutex
	live map[*os.Process]<-chan struct{}
}{live: map[*os.Process]<-chan struct{}{}}

// track records a started child whose reaping closes done. The returned
// func forgets it once it has been reaped.
func track(p *os.Process, done <-chan struct{}) (untrack func()) {
	children.Lock()
	children.live[p] = done
	children.Unlock()
	return func() {
		children.Lock()
		delete(children.live, p)
		children.Unlock()
	}
}

// killChildren kills every tracked child and waits until each has been
// reaped by the goroutine that waits on it.
func killChildren() {
	children.Lock()
	live := make(map[*os.Process]<-chan struct{}, len(children.live))
	for p, done := range children.live {
		live[p] = done
	}
	children.Unlock()
	for p := range live {
		p.Kill()
	}
	for _, done := range live {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
		}
	}
}
