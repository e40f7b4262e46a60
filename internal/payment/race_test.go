//go:build race

package payment

// raceEnabled tells the allocation pins to stand down: under the race
// detector sync.Pool drops a quarter of what is put back, so a warm pool
// still allocates.
const raceEnabled = true
