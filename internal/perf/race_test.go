//go:build race

package perf

func init() { raceEnabled = true }
