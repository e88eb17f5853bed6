// Package main is the reach analyzer's fixture: one binary, with
// symbols that main reaches, that only fixture_test.go reaches, and
// that nothing reaches.
package main

import "fmt"

func main() {
	var s shape = square{side: used()}
	fmt.Println(s.area(), limit)
}

func used() float64 { return 2 }

const limit = 10

// shape is reached from main; square's area is reached only through it,
// by name.
type shape interface{ area() float64 }

type square struct{ side float64 }

func (q square) area() float64 { return q.side * q.side }

// perimeter is a method of a reached type that no selector names and no
// interface declares.
func (q square) perimeter() float64 { return 4 * q.side } // want `method square\.perimeter is reachable from no main`

func orphan() int { return 1 } // want `func orphan is reachable from no main`

// testOnly is referred to by fixture_test.go alone; its method rides
// along with the type and is not reported on its own.
type testOnly struct{ n int } // want `type testOnly is reachable from no main`

func (t testOnly) double() int { return 2 * t.n }

// oracle is what a kept test reference looks like.
//
//repolint:allow reach -- TestFixtures/reach: stands in for a reference implementation a surviving test compares against
func oracle() int { return orphanOfOracle }

// orphanOfOracle shows that an allowed symbol is excused, not rooted:
// what only it refers to is still reported.
const orphanOfOracle = 3 // want `const orphanOfOracle is reachable from no main`

var _ shape = testOnly2{} // blank declarations root nothing

type testOnly2 struct{} // want `type testOnly2 is reachable from no main`

func (testOnly2) area() float64 { return 0 }
