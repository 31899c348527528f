package dstream

import (
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestOptionValidation: option values the open primitives used to misread
// silently now fail at open time with a clear error, per direction.
// Unknown strategies (which ran the parallel path) and negative values (a
// negative aggregator count fell back to the stripe factor, a negative
// depth to synchronous reads) fail everywhere; direction-inapplicable options
// (read-ahead on an output stream, append or write-behind on an input
// stream, any file-path setting on a channel) fail on exactly the
// directions they don't apply to, and still open on the ones they do.
func TestOptionValidation(t *testing.T) {
	const inapplicable = "does not apply to"
	cases := []struct {
		name string
		opts []Option
		// Expected error substring per open primitive; "" means the open
		// must succeed.
		wantOut, wantIn, wantCS, wantCR string
	}{
		{"defaults", nil, "", "", "", ""},
		{"positive aggregators", []Option{WithAggregators(2)}, "", "", inapplicable, inapplicable},
		{"explicit strategy", []Option{WithStrategy(StrategyTwoPhase)}, "", "", inapplicable, inapplicable},
		{"positive read-ahead", []Option{WithReadAhead(3)}, inapplicable, "", inapplicable, inapplicable},
		{"strict", []Option{WithStrict()}, inapplicable, "", inapplicable, ""},
		{"append", []Option{WithAppend()}, "", inapplicable, inapplicable, inapplicable},
		{"async", []Option{WithAsync()}, "", inapplicable, inapplicable, inapplicable},
		{"channel window", []Option{WithChannelWindow(1 << 16)}, inapplicable, inapplicable, "", ""},
		{"unknown strategy", []Option{WithStrategy(StrategyTwoPhase + 1)},
			"unknown strategy", "unknown strategy", "unknown strategy", "unknown strategy"},
		{"negative aggregators", []Option{WithAggregators(-2)},
			"negative aggregator count", "negative aggregator count", "negative aggregator count", "negative aggregator count"},
		{"negative read-ahead", []Option{WithReadAhead(-4)},
			"negative read-ahead depth", "negative read-ahead depth", "negative read-ahead depth", "negative read-ahead depth"},
		{"negative window", []Option{WithChannelWindow(-1)},
			"negative channel window", "negative channel window", "negative channel window", "negative channel window"},
		{"negative among valid", []Option{WithStrategy(StrategyTwoPhase), WithAggregators(-1), WithReadAhead(2)},
			"negative aggregator count", "negative aggregator count", "negative aggregator count", "negative aggregator count"},
	}
	check := func(t *testing.T, rank int, prim, name string, got error, want string, closer func() error) {
		t.Helper()
		if want == "" {
			if got != nil {
				t.Errorf("rank %d: %s(%s) failed: %v", rank, prim, name, got)
				return
			}
			if err := closer(); err != nil {
				t.Errorf("rank %d: %s(%s) close: %v", rank, prim, name, err)
			}
			return
		}
		if got == nil || !strings.Contains(got.Error(), want) {
			t.Errorf("rank %d: %s(%s) = %v, want error containing %q", rank, prim, name, got, want)
			if got == nil {
				closer()
			}
		}
	}
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		d, err := distr.New(8, 2, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		// Seed one valid file so the OpenInput (and append) successes have a
		// d/stream file to attach to.
		seed, err := Open(n, d, "opt-valid", WithStrategy(StrategyParallel))
		if err != nil {
			return err
		}
		if err := seed.InsertFunc(func(l int, e *Encoder) { e.Int64(int64(l)) }); err != nil {
			return err
		}
		if err := seed.Write(); err != nil {
			return err
		}
		if err := seed.Close(); err != nil {
			return err
		}

		for _, tc := range cases {
			outFile := "opt-" + tc.name
			if tc.wantOut == "" && hasAppend(tc.opts) {
				outFile = "opt-valid" // append needs an existing d/stream file
			}
			out, err := Open(n, d, outFile, tc.opts...)
			check(t, n.Rank(), "Open", tc.name, err, tc.wantOut, func() error {
				if out == nil {
					return nil
				}
				return out.Close()
			})

			in, err := OpenInput(n, d, "opt-valid", tc.opts...)
			check(t, n.Rank(), "OpenInput", tc.name, err, tc.wantIn, func() error {
				if in == nil {
					return nil
				}
				return in.Close()
			})

			// Channel opens are local (no communication, no storage): both
			// groups span the whole 2-rank machine, so every rank may try
			// both ends. The ends are dropped unclosed — an unused channel
			// holds no pooled buffers and owes no EOF.
			_, err = OpenChannel(n, d, d, "opt-chan-"+tc.name, tc.opts...)
			check(t, n.Rank(), "OpenChannel", tc.name, err, tc.wantCS, func() error { return nil })
			_, err = OpenChannelInput(n, d, d, "opt-chan-"+tc.name, tc.opts...)
			check(t, n.Rank(), "OpenChannelInput", tc.name, err, tc.wantCR, func() error { return nil })
		}
		return nil
	})
}

func hasAppend(opts []Option) bool {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o.Append
}

// TestPlannerEnabledGate pins which opens hand the strategy choice to the
// cost-model planner: every one under StrategyAuto, whatever else is set.
// Any explicit strategy pins that static path and its exact cost profile.
// Each case opens on every file direction it is valid for.
func TestPlannerEnabledGate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want bool
	}{
		{"zero options", Options{}, true},
		{"async only", Options{Async: true}, true},
		{"read-ahead only", Options{ReadAhead: 2}, true},
		{"aggregators only", Options{Aggregators: 2}, true},
		{"explicit strategy", Options{Strategy: StrategyFunnel}, false},
		{"explicit twophase", Options{Strategy: StrategyTwoPhase}, false},
	}
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		d, err := distr.New(8, 2, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		for _, tc := range cases {
			if tc.o.validateFor(dirOutput) == nil {
				s, err := Open(n, d, "gate", WithOptions(tc.o))
				if err != nil {
					return fmt.Errorf("%s: Open: %w", tc.name, err)
				}
				if got := s.planner != nil; got != tc.want {
					t.Errorf("%s: Open planner enabled = %v, want %v", tc.name, got, tc.want)
				}
				if err := s.InsertFunc(func(l int, e *Encoder) { e.Int64(int64(l)) }); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
				if err := s.Close(); err != nil {
					return err
				}
			}
			if tc.o.validateFor(dirInput) == nil {
				s, err := OpenInput(n, d, "gate", WithOptions(tc.o))
				if err != nil {
					return fmt.Errorf("%s: OpenInput: %w", tc.name, err)
				}
				if got := s.planner != nil; got != tc.want {
					t.Errorf("%s: OpenInput planner enabled = %v, want %v", tc.name, got, tc.want)
				}
				if err := s.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
