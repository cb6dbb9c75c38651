//go:build race

package doall_test

func init() { raceEnabled = true }
