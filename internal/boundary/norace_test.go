//go:build !race

package boundary

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
