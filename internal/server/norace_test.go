//go:build !race

package server

// raceEnabled says the race detector is on; see race_test.go.
const raceEnabled = false
