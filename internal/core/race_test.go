//go:build race

package core_test

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// random quarter of the values handed back to it: a pool's allocations then
// overcount the values that were out at once.
const raceEnabled = true
