//go:build !race

// Package raceflag reports whether the binary was built with the race
// detector. Allocation gates skip under it: the detector's
// instrumentation allocates, and sync.Pool drops items at random.
package raceflag

// Enabled is true in a -race build.
const Enabled = false
