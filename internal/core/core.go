// Package core marks where the paper's primary contribution lives within
// the repository layout. The d/stream implementation is
// pcxxstreams/internal/dstream: see that package's documentation for the
// abstraction, the Figure 2 state machines and the on-disk format.
// Applications reach it through the root pcxxstreams package, the single
// re-export point.
package core
