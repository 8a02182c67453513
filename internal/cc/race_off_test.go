//go:build !race

package cc

const raceEnabled = false
