//go:build !race

package templatebased

const raceEnabled = false
