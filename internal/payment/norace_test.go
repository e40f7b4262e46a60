//go:build !race

package payment

const raceEnabled = false
