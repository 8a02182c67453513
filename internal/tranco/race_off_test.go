//go:build !race

package tranco

const raceEnabled = false
