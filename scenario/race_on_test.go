//go:build race

package scenario

const raceEnabled = true
