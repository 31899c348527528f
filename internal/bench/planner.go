package bench

import (
	"bytes"
	"fmt"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// The planner-vs-oracle grid: a write grid and a read-side workload grid
// are replayed once per static choice and once under full-auto (the
// cost-model planner), and the planner's cycle time is compared against
// the best static choice the oracle found. The write grid's static columns
// double as the two-phase ablation: funnel vs parallel vs two-phase on
// the same cells. The gate — planner within PlannerTolerance of the oracle
// on at least PlannerMinFraction of all cells, byte identity in every
// cell, and two-phase beating both classic paths outright on at least one
// write cell — is what makes StrategyAuto's meaning safe to ship: the
// model may mis-rank near-ties, but it must never buy its choices with
// wrong bytes and must never be left badly behind by a static
// configuration someone could have written by hand.

const (
	// PlannerTolerance is how far above the best static cycle time a
	// cell's auto run may land and still count as matched.
	PlannerTolerance = 0.10
	// PlannerMinFraction is the fraction of grid cells that must match.
	PlannerMinFraction = 0.90
)

// PlannerWritePoint is one write-grid cell: the full SCF write+read cycle
// timed under each static strategy and under the planner, on one
// (platform, nodes, element size, stripe geometry) configuration.
type PlannerWritePoint struct {
	Platform     string  `json:"platform"`
	NProcs       int     `json:"nprocs"`
	Segments     int     `json:"segments"`
	Particles    int     `json:"particles"`
	StripeFactor int     `json:"stripe_factor"`
	StripeUnit   int64   `json:"stripe_unit"`
	Funnel       float64 `json:"funnel_seconds"`
	Parallel     float64 `json:"parallel_seconds"`
	TwoPhase     float64 `json:"twophase_seconds"`
	Auto         float64 `json:"auto_seconds"`
	// Best is the oracle: the cheapest static strategy's cycle time.
	Best         float64 `json:"best_static_seconds"`
	BestStrategy string  `json:"best_static_strategy"`
	// AutoOverBest is Auto/Best — ≤ 1+PlannerTolerance counts as matched.
	AutoOverBest float64 `json:"auto_over_best"`
	Matched      bool    `json:"matched"`
	// Identical reports the auto run's file image was byte-identical to
	// the best static run's.
	Identical bool `json:"identical"`
	// The planner's own account of the cell: which strategy it settled
	// on, its summed cost estimates, and the summed observed costs — the
	// model-vs-measured comparison EXPERIMENTS.md tabulates.
	AutoPick      string  `json:"auto_pick"`
	ModelEstimate float64 `json:"model_estimate_seconds"`
	ModelObserved float64 `json:"model_observed_seconds"`
}

// PlannerReadPoint is one read-grid cell: a multi-record input pipeline
// timed under every static (strategy × depth) pair and under the planner,
// on one (platform, element size, compute gap) workload.
type PlannerReadPoint struct {
	Platform         string  `json:"platform"`
	NProcs           int     `json:"nprocs"`
	Segments         int     `json:"segments"`
	Particles        int     `json:"particles"`
	Records          int     `json:"records"`
	StripeFactor     int     `json:"stripe_factor"`
	ComputePerRecord float64 `json:"compute_per_record_seconds"`
	// Static candidates: strategy × prefetch depth {0, 2}.
	ParallelSync  float64 `json:"parallel_sync_seconds"`
	ParallelAhead float64 `json:"parallel_ahead_seconds"`
	TwoPhaseSync  float64 `json:"twophase_sync_seconds"`
	TwoPhaseAhead float64 `json:"twophase_ahead_seconds"`
	Auto          float64 `json:"auto_seconds"`
	Best          float64 `json:"best_static_seconds"`
	BestChoice    string  `json:"best_static_choice"`
	AutoOverBest  float64 `json:"auto_over_best"`
	Matched       bool    `json:"matched"`
	// Identical reports every auto-read segment matched the generator
	// byte-for-byte (checked in-loop; a planner that wins with wrong
	// bytes fails the cell, not the tolerance).
	Identical     bool    `json:"identical"`
	ModelEstimate float64 `json:"model_estimate_seconds"`
	ModelObserved float64 `json:"model_observed_seconds"`
}

// PlannerGrid is the committed artifact (BENCH_planner.json).
type PlannerGrid struct {
	Write []PlannerWritePoint `json:"write"`
	Read  []PlannerReadPoint  `json:"read"`
}

// planScrape pulls the planner's self-accounting out of a run's monitor.
func planScrape(mon *dsmon.Monitor) (pick string, est, obs float64) {
	reg := mon.Registry()
	var most int64
	for _, s := range []string{"funnel", "parallel", "twophase"} {
		if v := reg.Counter("dstream_plan_records_total", "", "strategy", s).Value(); v > most {
			most, pick = v, s
		}
	}
	est = reg.Histogram("dstream_plan_estimate_seconds", "", dsmon.LatencyBuckets).Sum()
	obs = reg.Histogram("dstream_plan_observed_seconds", "", dsmon.LatencyBuckets).Sum()
	return pick, est, obs
}

// cycleWithImage runs one SCF cycle and returns its virtual seconds plus
// the file image it wrote.
func cycleWithImage(prof vtime.Profile, nprocs, segments, particles, stripe int, unit int64,
	opts dstream.Options, mon *dsmon.Monitor) (float64, []byte, error) {
	fs := pfs.NewFileSystem(prof, pfs.StripedMemFactory(stripe, unit))
	sec, err := Seconds(Run{
		Profile:    prof,
		NProcs:     nprocs,
		Segments:   segments,
		Particles:  particles,
		Variant:    Streams,
		StreamOpts: opts,
		FS:         fs,
		Verify:     true,
		Monitor:    mon,
	})
	if err != nil {
		return 0, nil, err
	}
	img, err := fs.Image("scf-particles")
	if err != nil {
		return 0, nil, fmt.Errorf("bench: snapshot image: %w", err)
	}
	return sec, img, nil
}

// MeasurePlannerWrite times one write-grid cell: three static strategies
// plus full auto, byte identity enforced against the best static image.
func MeasurePlannerWrite(prof vtime.Profile, nprocs, segments, particles, stripe int, unit int64) (PlannerWritePoint, error) {
	pt := PlannerWritePoint{
		Platform:     prof.Name,
		NProcs:       nprocs,
		Segments:     segments,
		Particles:    particles,
		StripeFactor: stripe,
		StripeUnit:   unit,
	}
	type cand struct {
		strat dstream.Strategy
		sec   *float64
	}
	cands := []cand{
		{dstream.StrategyFunnel, &pt.Funnel},
		{dstream.StrategyParallel, &pt.Parallel},
		{dstream.StrategyTwoPhase, &pt.TwoPhase},
	}
	images := make([][]byte, len(cands))
	for i, c := range cands {
		sec, img, err := cycleWithImage(prof, nprocs, segments, particles, stripe, unit,
			dstream.Options{Strategy: c.strat}, nil)
		if err != nil {
			return pt, fmt.Errorf("bench: planner cell %s/%v: %w", prof.Name, c.strat, err)
		}
		*c.sec, images[i] = sec, img
	}
	mon := dsmon.New()
	autoSec, autoImg, err := cycleWithImage(prof, nprocs, segments, particles, stripe, unit,
		dstream.Options{}, mon)
	if err != nil {
		return pt, fmt.Errorf("bench: planner cell %s/auto: %w", prof.Name, err)
	}
	pt.Auto = autoSec
	pt.AutoPick, pt.ModelEstimate, pt.ModelObserved = planScrape(mon)

	pt.Best, pt.BestStrategy = pt.Funnel, cands[0].strat.String()
	bestImg := images[0]
	for i, c := range cands[1:] {
		if *c.sec < pt.Best {
			pt.Best, pt.BestStrategy, bestImg = *c.sec, c.strat.String(), images[i+1]
		}
	}
	pt.AutoOverBest = pt.Auto / pt.Best
	pt.Matched = pt.Auto <= pt.Best*(1+PlannerTolerance)
	pt.Identical = bytes.Equal(autoImg, bestImg)
	return pt, nil
}

// plannerReadCycle writes `records` records (cyclic layout, explicit
// parallel strategy — the write side is held constant so only the read
// plan varies), then times the block-layout read-back with `compute`
// virtual seconds between records, verifying every segment against the
// generator. auto=false uses the explicit (strategy, depth) pair.
func plannerReadCycle(prof vtime.Profile, nprocs, segments, particles, records int,
	compute float64, stripe int, unit int64,
	auto bool, strat dstream.Strategy, depth int, mon *dsmon.Monitor) (float64, error) {
	fs := pfs.NewFileSystem(prof, pfs.StripedMemFactory(stripe, unit))
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs}, func(n *machine.Node) error {
		d, err := distr.New(segments, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		s, err := dstream.Open(n, d, "scf", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		defer s.Close()
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		for rec := 0; rec < records; rec++ {
			rec := rec
			c.Apply(func(g int, sg *scf.Segment) { sg.Fill(g+1000*rec, particles) })
			if err := dstream.Insert[scf.Segment](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	if err != nil {
		return 0, fmt.Errorf("bench: planner read grid write phase: %w", err)
	}

	mres, err := machine.Run(machine.Config{NProcs: nprocs, Profile: prof, FS: fs, Monitor: mon}, func(n *machine.Node) error {
		d, err := distr.New(segments, nprocs, distr.Block, 0)
		if err != nil {
			return err
		}
		var opts []dstream.Option
		if !auto {
			opts = append(opts, dstream.WithStrategy(strat))
			if depth > 0 {
				opts = append(opts, dstream.WithReadAhead(depth))
			}
		}
		s, err := dstream.OpenInput(n, d, "scf", opts...)
		if err != nil {
			return err
		}
		defer s.Close()
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		var ref scf.Segment
		for rec := 0; rec < records; rec++ {
			if err := s.Read(); err != nil {
				return err
			}
			if err := dstream.Extract[scf.Segment](s, c); err != nil {
				return err
			}
			var bad error
			rec := rec
			c.Apply(func(g int, sg *scf.Segment) {
				if bad != nil {
					return
				}
				ref.Fill(g+1000*rec, particles)
				if !sg.Equal(&ref) {
					bad = fmt.Errorf("record %d segment %d differs from generator", rec, g)
				}
			})
			if bad != nil {
				return bad
			}
			n.Compute(compute)
		}
		return s.Close()
	})
	if err != nil {
		return 0, fmt.Errorf("bench: planner read grid input phase: %w", err)
	}
	return mres.Elapsed, nil
}

// MeasurePlannerRead times one read-grid cell: four static (strategy ×
// depth) pairs plus full auto.
func MeasurePlannerRead(prof vtime.Profile, nprocs, segments, particles, records int,
	compute float64, stripe int, unit int64) (PlannerReadPoint, error) {
	pt := PlannerReadPoint{
		Platform:         prof.Name,
		NProcs:           nprocs,
		Segments:         segments,
		Particles:        particles,
		Records:          records,
		StripeFactor:     stripe,
		ComputePerRecord: compute,
	}
	type cand struct {
		name  string
		strat dstream.Strategy
		depth int
		sec   *float64
	}
	cands := []cand{
		{"parallel/sync", dstream.StrategyParallel, 0, &pt.ParallelSync},
		{"parallel/ahead2", dstream.StrategyParallel, 2, &pt.ParallelAhead},
		{"twophase/sync", dstream.StrategyTwoPhase, 0, &pt.TwoPhaseSync},
		{"twophase/ahead2", dstream.StrategyTwoPhase, 2, &pt.TwoPhaseAhead},
	}
	for _, c := range cands {
		sec, err := plannerReadCycle(prof, nprocs, segments, particles, records,
			compute, stripe, unit, false, c.strat, c.depth, nil)
		if err != nil {
			return pt, fmt.Errorf("bench: planner read cell %s/%s: %w", prof.Name, c.name, err)
		}
		*c.sec = sec
	}
	mon := dsmon.New()
	autoSec, err := plannerReadCycle(prof, nprocs, segments, particles, records,
		compute, stripe, unit, true, dstream.StrategyAuto, 0, mon)
	if err != nil {
		return pt, fmt.Errorf("bench: planner read cell %s/auto: %w", prof.Name, err)
	}
	pt.Auto = autoSec
	_, pt.ModelEstimate, pt.ModelObserved = planScrape(mon)

	pt.Best, pt.BestChoice = *cands[0].sec, cands[0].name
	for _, c := range cands[1:] {
		if *c.sec < pt.Best {
			pt.Best, pt.BestChoice = *c.sec, c.name
		}
	}
	pt.AutoOverBest = pt.Auto / pt.Best
	pt.Matched = pt.Auto <= pt.Best*(1+PlannerTolerance)
	pt.Identical = true // the read loop verified every segment in every run
	return pt, nil
}

// PlannerSweep replays the full grid, each cell scored against its static
// oracle: 16 write cells (platform × node count × element size × stripe
// factor) plus 8 read workload cells (platform × element size × compute
// gap). The write grid is chosen so the answer is not one-sided — small
// collections on one I/O channel favor the funnel, many small blocks from
// many nodes favor aggregation, and large elements amortize the
// per-operation latency that two-phase exists to dodge.
func PlannerSweep() (PlannerGrid, error) {
	var g PlannerGrid
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.CM5()} {
		for _, nprocs := range []int{4, 16} {
			for _, particles := range []int{8, 128} {
				for _, stripe := range []int{1, 4} {
					pt, err := MeasurePlannerWrite(prof, nprocs, 16*nprocs, particles, stripe, 64<<10)
					if err != nil {
						return g, err
					}
					g.Write = append(g.Write, pt)
				}
			}
		}
		for _, particles := range []int{8, 64} {
			for _, compute := range []float64{0, 0.02} {
				pt, err := MeasurePlannerRead(prof, 4, 16, particles, 6, compute, 4, 16<<10)
				if err != nil {
					return g, err
				}
				g.Read = append(g.Read, pt)
			}
		}
	}
	return g, nil
}

// TwoPhaseWins counts the write cells where two-phase beats both funnel
// and parallel outright.
func TwoPhaseWins(g PlannerGrid) int {
	wins := 0
	for _, pt := range g.Write {
		if pt.TwoPhase < pt.Funnel && pt.TwoPhase < pt.Parallel {
			wins++
		}
	}
	return wins
}

// CheckPlanner is the regression gate over a planner grid: byte identity
// in every cell, the matched fraction at or above min (the ≥90%
// within-10% acceptance bar when called with the package constants), and
// at least one write cell where two-phase aggregation pays for its
// shuffle by beating both classic paths outright.
func CheckPlanner(g PlannerGrid, tol, min float64) error {
	cells, matched := 0, 0
	for _, pt := range g.Write {
		if !pt.Identical {
			return fmt.Errorf("bench: planner write cell %s/%dp/%dB/sf%d: auto image differs from %s image",
				pt.Platform, pt.NProcs, pt.Particles, pt.StripeFactor, pt.BestStrategy)
		}
		cells++
		if pt.Auto <= pt.Best*(1+tol) {
			matched++
		}
	}
	for _, pt := range g.Read {
		if !pt.Identical {
			return fmt.Errorf("bench: planner read cell %s/%dB/%.3fs: segments differ from generator",
				pt.Platform, pt.Particles, pt.ComputePerRecord)
		}
		cells++
		if pt.Auto <= pt.Best*(1+tol) {
			matched++
		}
	}
	if cells == 0 {
		return fmt.Errorf("bench: planner grid is empty")
	}
	if frac := float64(matched) / float64(cells); frac < min {
		return fmt.Errorf("bench: planner matched the static oracle on %d/%d cells (%.0f%%), need ≥%.0f%%",
			matched, cells, 100*frac, 100*min)
	}
	if TwoPhaseWins(g) == 0 {
		return fmt.Errorf("bench: two-phase never beat both funnel and parallel — aggregation is not paying for its shuffle")
	}
	return nil
}
