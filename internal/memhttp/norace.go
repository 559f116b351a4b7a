//go:build !race

package memhttp

// RaceEnabled reports whether the race detector is built in. It makes
// sync.Pool drop pooled items at random, so a test pinning the
// allocations of a path with pooled buffers skips under it.
const RaceEnabled = false
