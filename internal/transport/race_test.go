//go:build race

package transport

// raceEnabled reports a -race build, under which sync.Pool drops
// items at random and allocation counts say nothing.
const raceEnabled = true
