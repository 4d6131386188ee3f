//go:build race

package db

const raceEnabled = true
