//go:build race

package core

// raceEnabled reports a -race build. The race detector slows the simplex
// about tenfold, so the exhaustive cap grids thin out under it: the race
// check needs the code paths, not every cap.
const raceEnabled = true
