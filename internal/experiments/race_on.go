//go:build race

package experiments

// raceDetector reports whether the race detector is active. Under -race,
// instrumentation overhead compresses timing ratios, so S3 reports its
// speedup without gating it (its allocation gate still applies).
const raceDetector = true
