// Package a is the library half of the deadexport fixture. Package b, a main
// package, is the only non-test code that uses it; a_test.go uses TestOnly and
// Seam. Its import path has an internal element, so its exports that only a
// itself uses are reported too. Expectations live in deadexport_test.go.
package a

import "errors"

// DeadFunc, DeadType, DeadVar and DeadConst have no use anywhere.
func DeadFunc() {}

type DeadType struct{ Field int }

var DeadVar = 1

const DeadConst = 2

// TestOnly is used from a_test.go alone, which does not keep it live.
func TestOnly() int { return 3 }

// Seam is used from a_test.go alone too, but its allow keeps it.
//
//lint:allow deadexport a_test.go checks it
func Seam() int { return 4 }

// UsedByB is live through b's call: b sees it through export data, so under
// object identity b's use would be a different object and miss it.
func UsedByB() int { return 5 }

// Shape is the interface b uses.
type Shape interface{ Area() float64 }

// Square implements Shape only through its pointer.
type Square struct{ Side float64 }

// Area is live: *Square has every method of Shape, which b uses.
func (s *Square) Area() float64 { return s.Side * s.Side }

// Perimeter completes no interface and nothing calls it.
func (s *Square) Perimeter() float64 { return 4 * s.Side }

// Code's String, Error and Unwrap are live through the interfaces the
// standard library looks for without naming them.
type Code int

func (c Code) String() string { return "code" }

func (c Code) Error() string { return c.String() }

func (c Code) Unwrap() error { return errors.ErrUnsupported }

// LocalFunc, LocalVar and LocalConst are used by local alone, so their
// exports serve no other package.
func LocalFunc() int { return 6 }

var LocalVar = 7

const LocalConst = 8

// SharedFunc, SharedVar and SharedConst are used by local and by b.
func SharedFunc() int { return 9 }

var SharedVar = 10

const SharedConst = 11

// LocalAndBTest is used by local and by b_test.go: the test use neither
// keeps it exported nor makes it dead.
func LocalAndBTest() int { return 12 }

// Level is an exported type only a uses, and Loud a constant of it: types
// are not in the own-package finding, and Loud stays with its type.
type Level int

const Loud Level = 13

// Kept is used by local alone, and its allow keeps it exported.
//
//lint:allow deadexport the fixture's allowed name
func Kept() int { return 14 }

// Stale's allow suppresses nothing: b uses it.
//
//lint:allow deadexport once needed by a alone
func Stale() int { return 15 }

func local() int {
	return LocalFunc() + LocalVar + LocalConst + SharedFunc() + SharedVar + SharedConst +
		LocalAndBTest() + int(Loud) + Kept() + Stale()
}

var _ = local
