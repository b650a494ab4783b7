// Package lib declares one export for each rule of the reach check.
package lib

// Unused is named by nothing.
func Unused() {}

// TestOnly is named only by lib_test.go.
func TestOnly() {}

// SelfRecursive names itself only inside its own declaration.
func SelfRecursive(n int) int {
	if n == 0 {
		return 0
	}
	return SelfRecursive(n - 1)
}

// Methods is named only by its methods' receivers.
type Methods struct{}

func (m *Methods) run() { m.run() }

// UsedByBench is named by the second module under bench/.
func UsedByBench() {}

// UsedByExample is named by the program under examples/.
func UsedByExample() {}

// UsedInPackage is named, bare, by another function of this package.
func UsedInPackage() {}

func caller() { UsedInPackage() }

// Kept is named by the example program.
type Kept struct{}

// Selected is named by a selector on a value whose type the scan never
// learns.
func (Kept) Selected() {}

// Unselected is named by no selector.
func (Kept) Unselected() {}
