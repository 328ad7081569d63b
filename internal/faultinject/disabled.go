//go:build !faultinject

package faultinject

import "time"

// Arm is a no-op without the faultinject build tag.
func Arm(point string, n int) {}

// ArmDelay is a no-op without the faultinject build tag.
func ArmDelay(point string, n int, d time.Duration) {}

// Disarm is a no-op without the faultinject build tag.
func Disarm(point string) {}

// Reset is a no-op without the faultinject build tag.
func Reset() {}

// Fire reports false: no fault point ever fires in a production build.
// It is small enough to inline, so hooks cost one dead branch.
func Fire(point string) bool { return false }

// Delay reports zero in a production build.
func Delay(point string) time.Duration { return 0 }

// Fired reports zero in a production build.
func Fired(point string) int { return 0 }
