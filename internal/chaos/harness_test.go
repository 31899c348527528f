package chaos

import (
	"bytes"
	"flag"
	"testing"
	"time"

	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
)

var (
	chaosSeed = flag.Int64("chaos.seed", 1, "first seed of the chaos oracle campaign")
	chaosN    = flag.Int("chaos.n", 200, "number of seeded schedules the chaos oracle runs")
)

// reportFailures logs every non-OK seed and fails the test on any forbidden
// outcome (hang or corruption). Clean errors are permitted — retry budgets
// are finite — but logged so a noisy schedule is visible.
func reportFailures(t *testing.T, rep Report) {
	t.Helper()
	for _, sr := range rep.Results {
		if sr.Outcome != OutcomeOK {
			t.Logf("seed %d: %s: %v", sr.Seed, sr.Outcome, sr.Err)
		}
	}
	t.Logf("campaign: %d ok, %d clean errors, %d corruptions, %d hangs over %d seeds",
		rep.OK, rep.CleanErrors, rep.Corruptions, rep.Hangs, len(rep.Results))
	if rep.Hangs != 0 {
		t.Fatalf("%d seed(s) hung — the stack lost progress under transient faults", rep.Hangs)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("%d seed(s) silently corrupted data", rep.Corruptions)
	}
}

// requireAllKinds asserts the campaign provably exercised every fault kind,
// via the dsmon injection counters the chaos layers bump.
func requireAllKinds(t *testing.T, rep Report) {
	t.Helper()
	for _, k := range commKinds {
		if rep.Injects["comm:"+k] == 0 {
			t.Errorf("no seed injected comm fault %q — campaign does not cover the fault space", k)
		}
	}
	for _, k := range pfsKinds {
		if rep.Injects["pfs:"+k] == 0 {
			t.Errorf("no seed injected pfs fault %q — campaign does not cover the fault space", k)
		}
	}
	t.Logf("injections: %v", rep.Injects)
}

// oracleCampaign is one row of the TestChaosOracle table: a pipeline
// configuration, its seed budget, and the assertion it adds on top of the
// hang/corruption verdict every row shares.
type oracleCampaign struct {
	name string
	cfg  Config
	// The row runs max(chaos.n/div, floor) seeds from chaos.seed; div 0
	// means chaos.n seeds.
	div, floor int
	// long rows pay for real sockets or many ranks and skip in -short mode.
	long bool
	// planChains collects every rank's plan-decision chains per seed and
	// requires them bit-identical on every successful seed.
	planChains bool
	// extra is the row's own assertion over the finished campaign.
	extra func(t *testing.T, rep Report)
}

func (c oracleCampaign) seeds() int {
	if c.div == 0 {
		return *chaosN
	}
	return max(*chaosN/c.div, c.floor)
}

// requirePfsKinds asserts the striped factory put every storage fault kind
// under the read fan-out.
func requirePfsKinds(t *testing.T, rep Report) {
	t.Helper()
	for _, k := range pfsKinds {
		if rep.Injects["pfs:"+k] == 0 {
			t.Errorf("no seed injected pfs fault %q under the stripe", k)
		}
	}
	t.Logf("injections: %v", rep.Injects)
}

// TestChaosOracle is the tentpole acceptance test: the full SCF write→read
// pipeline across NProcs simulated ranks, run under seeded fault schedules
// starting at -chaos.seed, once per row below. Every run must finish with
// bytes identical to the fault-free reference or a clean error on every
// rank; hangs and silent corruption fail the suite, and every row must see
// at least one seed complete.
//
//   - default: the paper's configuration under the planner; the campaign
//     as a whole must inject every fault kind at least once.
//   - twophase: the aggregation shuffle, extent assembly and scatter
//     traffic face the same schedules as the classic paths.
//   - parallel: the all-ranks append/read paths, drawing every frame and
//     refill buffer from the shared pool — a resurfaced recycled buffer
//     shows up as a corruption (and, under -tags pooldebug, as a poison
//     panic at the exact Get).
//   - readahead: the prefetch pipeline over a striped, fault-injected
//     store, every stripe leg failing on its own schedule while background
//     refills are in flight; a prefetch that outlives its stream, leaks a
//     pooled buffer into a wedged rendezvous, or applies a stale refill
//     shows up as a hang or a corruption.
//   - planner: full-auto streams over a striped store. Injected faults skew
//     the cost observations the planner calibrates against mid-stream; a
//     rank that saw a different cost would switch strategies on a
//     different record boundary and deadlock or interleave wrong bytes, so
//     every successful seed's per-rank plan-decision chains (FNV-1a over
//     each record's strategy, aggregator count and depth) must be
//     bit-identical on both the write and read side.
//   - tcp: real loopback sockets, exposing the framing, write-deadline and
//     broken-connection paths; fewer seeds since each pays for real
//     dial/accept work.
//   - scale: 64 ranks with fan-out-sharded collectives, the configuration
//     of the runtime scale curve, where a mailbox-ring bug that only shows
//     under many concurrent producers (a missed wakeup on a contended
//     gate, a stale overflow count, a close racing hundreds of enqueues)
//     becomes a hang or corruption verdict; fewer seeds since one 64-rank
//     pipeline costs ~16x a 4-rank one.
func TestChaosOracle(t *testing.T) {
	striped := Config{Records: 3, StripeFactor: 3, StripeUnit: 1 << 12}
	readAhead := striped
	readAhead.ReadAhead = 2
	campaigns := []oracleCampaign{
		{name: "default", extra: requireAllKinds},
		{name: "twophase", cfg: Config{Strategy: dstream.StrategyTwoPhase}},
		{name: "parallel", cfg: Config{Strategy: dstream.StrategyParallel}},
		{name: "readahead", cfg: readAhead, extra: requirePfsKinds},
		{name: "planner", cfg: striped, planChains: true},
		{name: "tcp", cfg: Config{Transport: machine.TransportTCP}, div: 10, floor: 10, long: true},
		{name: "scale", cfg: Config{NProcs: 64, Fanout: 8, Records: 1}, div: 20, floor: 8, long: true},
	}
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("skipped in -short mode")
			}
			cfg := c.cfg.withDefaults()
			ref, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rep Report
			agreed := 0
			for i := 0; i < c.seeds(); i++ {
				seed := *chaosSeed + int64(i)
				sc := cfg
				if c.planChains {
					sc.PlanSigs = NewPlanSignatures(cfg.NProcs)
				}
				sr := RunSeed(sc, seed, ref)
				rep.Add(sr)
				if sr.Outcome == OutcomeHang {
					break
				}
				// Only completed runs have every rank's chain; a clean error
				// legitimately leaves ranks at different records.
				if c.planChains && sr.Outcome == OutcomeOK {
					if err := sc.PlanSigs.Agree(); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					} else {
						agreed++
					}
				}
			}
			reportFailures(t, rep)
			if c.extra != nil {
				c.extra(t, rep)
			}
			if rep.OK == 0 {
				t.Error("no seed completed successfully — default rates should mostly be survivable")
			}
			if c.planChains {
				t.Logf("plan-decision chains rank-identical on all %d successful seeds", agreed)
			}
		})
	}
}

// TestReferenceStrategyIdentity: the fault-free pipeline writes the same
// bytes whichever strategy moves them — funnel, parallel, and two-phase are
// rank-to-block assignments, not formats. This pins the cross-strategy
// byte-identity acceptance criterion on the SCF pipeline itself.
func TestReferenceStrategyIdentity(t *testing.T) {
	ref, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []dstream.Strategy{dstream.StrategyFunnel, dstream.StrategyParallel, dstream.StrategyTwoPhase} {
		img, err := Reference(Config{Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !bytes.Equal(img, ref) {
			t.Errorf("strategy %v image differs from auto reference (%d vs %d bytes)", s, len(img), len(ref))
		}
	}
}

// TestChaosBrutalRatesFailCleanly cranks the drop rate far past what the
// retry budget absorbs: most seeds must now fail, but every failure must
// still be clean — retry exhaustion may abort a run, never hang or corrupt
// it.
func TestChaosBrutalRatesFailCleanly(t *testing.T) {
	rates := DefaultRates()
	rates.Drop = 0.45
	rep, err := RunSeeds(Config{Rates: rates, Watchdog: 2 * time.Minute}, *chaosSeed, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("brutal campaign: %d ok, %d clean errors, %d corruptions, %d hangs",
		rep.OK, rep.CleanErrors, rep.Corruptions, rep.Hangs)
	if rep.Hangs != 0 {
		t.Fatalf("%d seed(s) hung under brutal rates", rep.Hangs)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("%d seed(s) corrupted data under brutal rates", rep.Corruptions)
	}
	if rep.CleanErrors == 0 {
		t.Error("a 45% drop rate never exhausted a retry budget — exhaustion path untested")
	}
}

// TestReferenceDeterministic: the fault-free pipeline is a fixed point — two
// reference runs produce byte-identical images. Without this the oracle's
// byte-comparison verdict would be meaningless.
func TestReferenceDeterministic(t *testing.T) {
	a, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reference(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two fault-free runs differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("reference image is empty")
	}
}
