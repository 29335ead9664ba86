//go:build race

package server

// raceEnabled says the race detector is on. sync.Pool then drops a random
// quarter of the values put back, so allocation counts depend on chance.
const raceEnabled = true
