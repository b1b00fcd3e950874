//go:build race

package cupid_test

func init() { raceEnabled = true }
