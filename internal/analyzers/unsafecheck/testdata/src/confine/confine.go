// Package fixture violates unsafe confinement: it is not an analyzer
// package, yet reaches for raw memory.
package fixture

import "unsafe" // want `unsafe is not allowed outside internal/analyzers`

// Size uses the import so the fixture compiles.
func Size() uintptr { return unsafe.Sizeof(int64(0)) }
