package dstream

import (
	"fmt"
	"strconv"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/plan"
)

// Planner integration. Under StrategyAuto (no explicit strategy) a stream
// carries a plan.Planner: a closed-form cost model over the node's
// platform profile and the file's stripe layout that picks strategy,
// aggregator fan-in, and read-ahead depth per record, re-planning online
// when observed cost diverges from the estimate.
//
// Collective-consistency contract: every planner input is rank-identical —
// the record geometry comes from an Allreduce (writes) or node 0's
// metadata broadcast (reads), and the observed costs are virtual-clock
// deltas between points where a synchronizing collective has equalized the
// group's clocks. Every rank therefore computes the identical plan chain
// with no extra agreement round; PlanSignature exposes the chain's hash so
// harnesses can verify no switch ever split the group.

// streamDir names the open primitive an Options value is validated for, so
// direction-inapplicable settings fail loudly instead of passing silently.
type streamDir uint8

const (
	dirOutput streamDir = iota
	dirInput
	dirChanSend
	dirChanRecv
)

func (d streamDir) String() string {
	switch d {
	case dirOutput:
		return "Open"
	case dirInput:
		return "OpenInput"
	case dirChanSend:
		return "OpenChannel"
	case dirChanRecv:
		return "OpenChannelInput"
	}
	return fmt.Sprintf("streamDir(%d)", uint8(d))
}

// validateFor rejects option values the named open primitive would
// otherwise misread silently: a Strategy past the known ones (which would
// run some other data path), negative values indistinguishable from the
// zero value (a negative aggregator count would fall back to the stripe
// factor, a negative read-ahead to synchronous reads), and options that
// belong to the other direction entirely (read-ahead on an output stream,
// append or write-behind on an input stream, any file-path setting on an
// interconnect-only channel).
func (o Options) validateFor(dir streamDir) error {
	if o.Strategy > StrategyTwoPhase {
		return fmt.Errorf("dstream: unknown strategy %v", o.Strategy)
	}
	if o.Aggregators < 0 {
		return fmt.Errorf("dstream: negative aggregator count %d", o.Aggregators)
	}
	if o.ReadAhead < 0 {
		return fmt.Errorf("dstream: negative read-ahead depth %d", o.ReadAhead)
	}
	if o.ChannelWindow < 0 {
		return fmt.Errorf("dstream: negative channel window %d", o.ChannelWindow)
	}
	reject := func(opt string) error {
		return fmt.Errorf("dstream: option %s does not apply to %s", opt, dir)
	}
	switch dir {
	case dirOutput:
		if o.ReadAhead > 0 {
			return reject("WithReadAhead")
		}
		if o.Strict {
			return reject("WithStrict")
		}
		if o.ChannelWindow > 0 {
			return reject("WithChannelWindow")
		}
	case dirInput:
		if o.Append {
			return reject("WithAppend")
		}
		if o.Async {
			return reject("WithAsync")
		}
		if o.ChannelWindow > 0 {
			return reject("WithChannelWindow")
		}
	case dirChanSend, dirChanRecv:
		// Channels live on the interconnect: no file, no collective data
		// path, no prefetch pipeline, no storage override.
		if o.Append {
			return reject("WithAppend")
		}
		if o.Async {
			return reject("WithAsync")
		}
		if o.ReadAhead > 0 {
			return reject("WithReadAhead")
		}
		if o.Strategy != StrategyAuto {
			return reject("WithStrategy")
		}
		if o.Aggregators > 0 {
			return reject("WithAggregators")
		}
		if o.FS != nil {
			return reject("WithFileSystem")
		}
		if dir == dirChanSend && o.Strict {
			return reject("WithStrict")
		}
	}
	return nil
}

// fromPlanStrategy maps the planner's strategy space onto the stream's.
func fromPlanStrategy(s plan.Strategy) Strategy {
	switch s {
	case plan.Funnel:
		return StrategyFunnel
	case plan.TwoPhase:
		return StrategyTwoPhase
	}
	return StrategyParallel
}

// planMetrics is the dstream_plan_* handle set, created once at open so
// the per-record bookkeeping allocates nothing.
type planMetrics struct {
	records  [3]*dsmon.Counter // indexed by plan.Strategy
	switches *dsmon.Counter
	estimate *dsmon.Histogram
	observed *dsmon.Histogram
	sig      *dsmon.Gauge
	depth    *dsmon.Gauge
}

func newPlanMetrics(met *streamMetrics, rank int) *planMetrics {
	reg := met.mon.Registry()
	pm := &planMetrics{
		switches: reg.Counter("dstream_plan_switches_total",
			"records where the planner changed strategy mid-stream"),
		estimate: reg.Histogram("dstream_plan_estimate_seconds",
			"planner cost estimate per planned record (calibrated, virtual seconds)", dsmon.LatencyBuckets),
		observed: reg.Histogram("dstream_plan_observed_seconds",
			"observed virtual cost per planned record", dsmon.LatencyBuckets),
		sig: reg.Gauge("dstream_plan_sig",
			"low 32 bits of the rank's plan-chain signature (full value via PlanSignature)",
			"rank", strconv.Itoa(rank)),
		depth: reg.Gauge("dstream_plan_readahead_depth",
			"read-ahead depth the planner currently asks for"),
	}
	for s := plan.Strategy(0); s < 3; s++ {
		pm.records[s] = reg.Counter("dstream_plan_records_total",
			"records planned, by chosen strategy", "strategy", s.String())
	}
	return pm
}

// note records one decision into the plan metric families.
func (pm *planMetrics) note(p *plan.Planner, d plan.Decision) {
	pm.records[d.Strategy].Inc()
	pm.estimate.Observe(d.Estimate)
	if d.Switched {
		pm.switches.Inc()
	}
	pm.sig.Set(float64(uint32(p.Signature())))
}

// planSwitchSpan drops a zero-length marker span at a plan switch so
// critical-path attribution sees the re-planning event on the timeline.
func (s *stream) planSwitchSpan(d plan.Decision) {
	if rec := s.met.mon.Recorder(); rec != nil {
		now := s.node.Clock().Now()
		rec.AddSpan(s.node.Rank(), "dstream", "plan.switch "+s.name+" -> "+d.Strategy.String(), now, now)
	}
}

// newStreamPlanner builds the planner a full-auto stream carries: the cost
// model is the node's platform profile crossed with the stream file's
// stripe layout.
func (s *stream) newStreamPlanner() *plan.Planner {
	return plan.New(plan.Model{Prof: s.node.Profile(), Layout: s.f.Layout()})
}

// metaBytesFor is the record front-matter size of this stream's
// distribution: header, descriptor (cached — it never changes between
// records), and size table.
func (s *stream) metaBytesFor(descLen int) int64 {
	return enc.RecordHeaderLen + int64(descLen) + int64(4*s.dist.N)
}

// PlanSignature returns the FNV-1a hash of the planner's decision chain on
// this rank (0 when the planner is off). All ranks of one stream must
// agree on it at any record boundary; a mismatch means a plan switch broke
// collective consistency.
func (s *OStream) PlanSignature() uint64 {
	if s.planner == nil {
		return 0
	}
	return s.planner.Signature()
}

// PlanSwitches returns how many records re-planned onto a different
// strategy (0 when the planner is off).
func (s *OStream) PlanSwitches() int64 {
	if s.planner == nil {
		return 0
	}
	return s.planner.Switches()
}

// PlanSignature is the input-side mirror of OStream.PlanSignature.
func (s *IStream) PlanSignature() uint64 {
	if s.planner == nil {
		return 0
	}
	return s.planner.Signature()
}

// PlanSwitches is the input-side mirror of OStream.PlanSwitches.
func (s *IStream) PlanSwitches() int64 {
	if s.planner == nil {
		return 0
	}
	return s.planner.Switches()
}
