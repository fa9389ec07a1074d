//go:build race

package boundary

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so pool hit counts are not exact there.
const raceEnabled = true
