//go:build race

package node_test

// raceEnabled: under the detector sync.Pool drops a quarter of its Puts
// on purpose, so a count of allocations that sit behind a pool is not
// the program's.
const raceEnabled = true
