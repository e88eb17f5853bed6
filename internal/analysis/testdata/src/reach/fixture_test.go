package main

// References from a _test.go file keep nothing alive.
func helperForTests() int { return testOnly{n: oracle()}.double() }
