//go:build !race

package rdap

const raceEnabled = false
