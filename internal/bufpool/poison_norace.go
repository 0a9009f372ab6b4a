//go:build !race

package bufpool

// RaceBuild: see poison_race.go.
const RaceBuild = false

func poison([]byte) {}
