//go:build race

package explore

func init() { raceEnabled = true }
