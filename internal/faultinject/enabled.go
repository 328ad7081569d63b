//go:build faultinject

package faultinject

import (
	"sync"
	"time"
)

type point struct {
	remaining int // shots left; negative = unlimited
	fired     int
	delay     time.Duration
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

// Arm schedules the named point to fire on its next n triggers (n < 0 arms
// it until Disarm/Reset). Re-arming replaces the previous shot count but
// keeps the fired tally.
func Arm(name string, n int) { ArmDelay(name, n, 0) }

// ArmDelay arms the point like Arm and attaches a delay for delay-style
// hooks (slow-solve). d == 0 selects DefaultDelay at the hook site.
func ArmDelay(name string, n int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		p = &point{}
		points[name] = p
	}
	p.remaining = n
	p.delay = d
}

// Disarm clears the point's remaining shots (the fired tally survives).
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		p.remaining = 0
	}
}

// Reset disarms every point and zeroes all tallies.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
}

// Fire consumes one armed shot of the named point and reports whether the
// fault should trigger. Unarmed (or exhausted) points report false.
func Fire(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil || p.remaining == 0 {
		return false
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.fired++
	return true
}

// Delay returns the stall attached to the point by ArmDelay, falling back
// to DefaultDelay when the point was armed without one.
func Delay(name string) time.Duration {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil && p.delay > 0 {
		return p.delay
	}
	return DefaultDelay
}

// Fired reports how many times the point has fired since the last Reset.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.fired
	}
	return 0
}
