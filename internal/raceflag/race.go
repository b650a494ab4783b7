//go:build race

package raceflag

// Enabled is true in a -race build.
const Enabled = true
