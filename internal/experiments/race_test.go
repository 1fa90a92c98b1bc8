//go:build race

package experiments

// raceEnabled reports that the tests run under the race detector, which
// slows the simulators by an order of magnitude (make ci-race runs the list
// runner tests).
const raceEnabled = true
