// Package pcxxstreams is a Go reproduction of pC++/streams (Gotwals,
// Srinivas, Gannon — PPoPP 1995): d/streams, a buffered-I/O abstraction for
// distributed arrays of variable-sized objects, together with the whole
// stack the paper's library ran on — an object-parallel collection model, a
// simulated multicomputer with message passing over goroutines or TCP
// sockets, and a Paragon-style parallel file system with a calibrated cost
// model.
//
// This package is the public façade: it re-exports the user-facing API of
// the internal packages so applications can be written against one import.
//
// A minimal program (see examples/quickstart for the runnable version):
//
//	cfg := pcxxstreams.Config{NProcs: 4, Profile: pcxxstreams.Paragon()}
//	pcxxstreams.Run(cfg, func(n *pcxxstreams.Node) error {
//	    d, _ := pcxxstreams.NewDistribution(1000, 4, pcxxstreams.Cyclic, 0)
//	    g, _ := pcxxstreams.NewCollection[Particle](n, d)
//	    // ... fill g ...
//	    s, _ := pcxxstreams.Open(n, d, "wholeGridFile")   // oStream s(&d,&a,...)
//	    pcxxstreams.Insert[Particle](s, g)                // s << g
//	    s.Write()                                         // s.write()
//	    return s.Close()
//	})
package pcxxstreams

import (
	"pcxxstreams/internal/ckpt"
	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dsmon/critpath"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/grid"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/replicated"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/session"
	"pcxxstreams/internal/telemetry"
	"pcxxstreams/internal/trace"
	"pcxxstreams/internal/vtime"
)

// --- Machine: the simulated multicomputer (paper's Processors object) ---

type (
	// Config describes a machine run: node count, platform cost profile,
	// transport, and optionally a shared file system.
	Config = machine.Config
	// Node is one rank's execution context inside Run.
	Node = machine.Node
	// Result reports per-node and maximum virtual times of a run.
	Result = machine.Result
	// TransportKind selects in-process channels or TCP sockets.
	TransportKind = machine.TransportKind
	// Profile is a platform cost model (Paragon, Challenge, CM5).
	Profile = vtime.Profile
)

// Transport kinds.
const (
	// TransportChan exchanges messages through in-process queues.
	TransportChan = machine.TransportChan
	// TransportTCP exchanges messages over loopback TCP sockets.
	TransportTCP = machine.TransportTCP
)

// Collective algorithms (Config.Collectives).
const (
	// LinearCollectives is the root-exchanges-with-all default, right at
	// the paper's 4-16 node scale.
	LinearCollectives = collective.Linear
	// TreeCollectives uses binomial trees and a dissemination barrier:
	// O(log P) depth for large simulated machines.
	TreeCollectives = collective.Tree
)

// TraceRecorder records per-operation virtual-time intervals of a run
// (Config.Trace); render with WriteGantt or WriteChromeJSON.
type TraceRecorder = trace.Recorder

// NewTraceRecorder creates an empty trace recorder.
var NewTraceRecorder = trace.New

// Monitor is the run-wide observability handle (Config.Monitor): a metric
// registry covering comm, collective, pfs and dstream, plus — when created
// with NewTracingMonitor — a trace recorder that adds comm/collective/
// dstream spans to the io timeline. Expose with WritePrometheus, WriteJSON
// or WriteChromeJSON.
type Monitor = dsmon.Monitor

var (
	// NewMonitor creates a metrics-only monitor.
	NewMonitor = dsmon.New
	// NewTracingMonitor creates a monitor that also records spans.
	NewTracingMonitor = dsmon.NewTracing
)

type (
	// MetricsSnapshot is a consistent point-in-time copy of a monitor's
	// metric registry (see Registry.Snapshot and Watcher).
	MetricsSnapshot = dsmon.Snapshot
	// MetricsWatcher delivers periodic registry snapshots on a channel
	// mid-run (see Registry.Watch); snapshots are deep copies owned by the
	// receiver.
	MetricsWatcher = dsmon.Watcher
	// CritPathReport attributes a traced run's virtual time per rank and
	// category and extracts the critical path (see AnalyzeCritPath).
	CritPathReport = critpath.Report
	// TelemetryServer serves a monitor's live metrics/trace/critpath over
	// HTTP (see ServeTelemetry; Config.TelemetryAddr serves for a run's
	// duration automatically).
	TelemetryServer = telemetry.Server
)

var (
	// AnalyzeCritPath builds the critical-path attribution report from a
	// tracing monitor's recorder.
	AnalyzeCritPath = critpath.Analyze
	// ServeTelemetry starts the live telemetry HTTP server (/metrics,
	// /trace, /critpath, /healthz, /debug/vars) for a monitor.
	ServeTelemetry = telemetry.Serve
)

// Run executes body SPMD-style on every node of the configured machine.
var Run = machine.Run

// Platform profiles.
var (
	// Paragon models the Intel Paragon with its PFS parallel file system.
	Paragon = vtime.Paragon
	// Challenge models the SGI Challenge shared-memory multiprocessor.
	Challenge = vtime.Challenge
	// CM5 models the Thinking Machines CM-5 with SFS.
	CM5 = vtime.CM5
	// ProfileByName looks profiles up by name ("paragon", "challenge", "cm5").
	ProfileByName = vtime.ByName
)

// --- Distribution and alignment (HPF-style, paper §4) ---

type (
	// Distribution maps collection elements to owning processors.
	Distribution = distr.Distribution
	// Mode is the HPF distribution pattern (Block, Cyclic, BlockCyclic).
	Mode = distr.Mode
	// Alignment maps collection indices onto a distribution template.
	Alignment = distr.Alignment
)

// Distribution modes.
const (
	// Block assigns contiguous chunks to processors.
	Block = distr.Block
	// Cyclic deals elements round-robin.
	Cyclic = distr.Cyclic
	// BlockCyclic deals fixed-size blocks round-robin.
	BlockCyclic = distr.BlockCyclic
	// ExplicitMode assigns elements through an owner table.
	ExplicitMode = distr.Explicit
)

// Distribution constructors.
var (
	// NewDistribution distributes n elements over nprocs processors.
	NewDistribution = distr.New
	// NewAlignedDistribution aligns n elements onto a template.
	NewAlignedDistribution = distr.NewAligned
	// NewExplicitDistribution distributes by an explicit owner table.
	NewExplicitDistribution = distr.NewExplicit
	// NewBalancedDistribution partitions weighted elements into contiguous
	// near-equal-weight chunks (variable-density data).
	NewBalancedDistribution = distr.NewBalanced
	// IdentityAlignment is the 1:1 alignment.
	IdentityAlignment = distr.Identity
)

// Grid2D distributes a 2-D grid over a processor mesh with an HPF pattern
// per dimension; its Dist() plugs into collections and streams.
type Grid2D = grid.Grid2D

// Grid3D is the three-dimensional counterpart of Grid2D.
type Grid3D = grid.Grid3D

// Grid constructors.
var (
	// NewGrid2D builds a rows × cols grid over a procRows × procCols mesh.
	NewGrid2D = grid.New2D
	// NewGrid3D builds an nx × ny × nz grid over a px × py × pz mesh.
	NewGrid3D = grid.New3D
)

// --- Collections (pC++'s distributed arrays of objects) ---

// Collection is a distributed array of T over a Distribution.
type Collection[T any] = collection.Collection[T]

// NewCollection builds a node's view of a collection distributed by d.
func NewCollection[T any](n *Node, d *Distribution) (*Collection[T], error) {
	return collection.New[T](n, d)
}

// --- d/streams: the paper's central contribution ---

type (
	// OStream is an output d/stream (declare with Open).
	OStream = dstream.OStream
	// IStream is an input d/stream (declare with OpenInput).
	IStream = dstream.IStream
	// Encoder is the per-element payload encoder used by inserters.
	Encoder = dstream.Encoder
	// Decoder is the per-element payload decoder used by extractors.
	Decoder = dstream.Decoder
	// Inserter is implemented by self-inserting element types.
	Inserter = dstream.Inserter
	// Extractor is implemented by self-extracting element types.
	Extractor = dstream.Extractor
	// StreamOptions is the stream settings struct behind the functional
	// options; prefer Open/OpenInput with With* options.
	StreamOptions = dstream.Options
	// StreamOption is one functional stream setting for Open/OpenInput.
	StreamOption = dstream.Option
	// Strategy selects the collective data path of a stream (funnel,
	// parallel, two-phase, or the auto cost-model planner).
	Strategy = dstream.Strategy
	// OChannel is the sending end of a stream-to-stream channel (declare
	// with OpenChannel): the d/stream record model over the interconnect,
	// skipping the file system.
	OChannel = dstream.OChannel
	// IChannel is the receiving end of a stream-to-stream channel (declare
	// with OpenChannelInput).
	IChannel = dstream.IChannel
)

// DefaultChannelWindow is the per-consumer credit window a channel uses
// when WithChannelWindow is not given.
const DefaultChannelWindow = dstream.DefaultChannelWindow

// Stream strategies.
const (
	// StrategyAuto lets the cost-model planner pick the path per record.
	StrategyAuto = dstream.StrategyAuto
	// StrategyFunnel routes metadata and data through node 0's block.
	StrategyFunnel = dstream.StrategyFunnel
	// StrategyParallel writes with every node hitting the PFS directly.
	StrategyParallel = dstream.StrategyParallel
	// StrategyTwoPhase shuffles to stripe-aligned aggregators first.
	StrategyTwoPhase = dstream.StrategyTwoPhase
)

// Open opens an output d/stream with functional options:
// Open(n, d, "file", WithStrategy(StrategyTwoPhase), WithAsync()). It
// routes through the default session (see Connect and SetDefaultSession):
// embedded programs get the machine's own file system, while a program
// whose default session is connected to a dstreamd daemon opens the same
// stream against remote storage.
func Open(n *Node, d *Distribution, name string, opts ...StreamOption) (*OStream, error) {
	return session.Default().Open(n, d, name, opts...)
}

// OpenInput opens an input d/stream with functional options, routing
// through the default session like Open.
func OpenInput(n *Node, d *Distribution, name string, opts ...StreamOption) (*IStream, error) {
	return session.Default().OpenInput(n, d, name, opts...)
}

// OpenChannel opens the sending end of a stream-to-stream channel named
// name: a persistent pipeline that attaches the M producer ranks owning
// mine (machine ranks 0..M-1) to the N consumer ranks owning peer (the top
// N machine ranks), redistributing records on the fly when the two
// distributions differ. Channels move bytes over the interconnect and never
// touch the file system; records are written with the same inserter
// machinery as an OStream and paced by credit-based flow control.
func OpenChannel(n *Node, mine, peer *Distribution, name string, opts ...StreamOption) (*OChannel, error) {
	return session.Default().OpenChannel(n, mine, peer, name, opts...)
}

// OpenChannelInput opens the receiving end of a stream-to-stream channel,
// the consumer-side counterpart of OpenChannel: mine is the consumer
// group's distribution, peer the producers'.
func OpenChannelInput(n *Node, mine, peer *Distribution, name string, opts ...StreamOption) (*IChannel, error) {
	return session.Default().OpenChannelInput(n, mine, peer, name, opts...)
}

// InsertElems inserts one array of elements into a channel from a plain
// local slice (channels take slices rather than Collections because a
// channel group spans only part of the machine).
func InsertElems[T any, PT dstream.InserterPtr[T]](s *OChannel, local []T) error {
	return dstream.InsertElems[T, PT](s, local)
}

// ExtractElems extracts one array of elements from a channel into a plain
// local slice, the inverse of InsertElems.
func ExtractElems[T any, PT dstream.ExtractorPtr[T]](r *IChannel, local []T) error {
	return dstream.ExtractElems[T, PT](r, local)
}

// Stream constructors and sentinel errors.
var (
	// ParseStrategy maps a flag value to a Strategy.
	ParseStrategy = dstream.ParseStrategy

	// WithStrategy selects the collective data path.
	WithStrategy = dstream.WithStrategy
	// WithAsync makes output writes write-behind.
	WithAsync = dstream.WithAsync
	// WithAppend adds records to an existing d/stream file.
	WithAppend = dstream.WithAppend
	// WithStrict enforces full extraction on input streams.
	WithStrict = dstream.WithStrict
	// WithAggregators overrides the two-phase aggregator count.
	WithAggregators = dstream.WithAggregators
	// WithReadAhead enables the input stream's prefetch pipeline: up to n
	// records' refills are issued in the background and Read stalls only
	// for the un-overlapped remainder of each transfer.
	WithReadAhead = dstream.WithReadAhead
	// WithChannelWindow sets a channel's per-consumer credit window in
	// bytes (how far a producer may run ahead of each consumer).
	WithChannelWindow = dstream.WithChannelWindow
	// WithStreamOptions merges a pre-built StreamOptions value.
	WithStreamOptions = dstream.WithOptions
	// WithFileSystem opens the stream's file on an explicit file system
	// (sessions use this internally to point streams at a daemon).
	WithFileSystem = dstream.WithFileSystem

	// ErrClosed reports use of a closed stream.
	ErrClosed = dstream.ErrClosed
	// ErrNotAligned reports a collection/stream layout mismatch.
	ErrNotAligned = dstream.ErrNotAligned
	// ErrOrder reports a primitive called out of Figure 2's legal order.
	ErrOrder = dstream.ErrOrder
	// ErrIO wraps a flush or refill that failed in the layers below.
	ErrIO = dstream.ErrIO
	// ErrEOS reports end of stream on a channel's receiving end: every
	// producer closed and all records have been read. Not sticky.
	ErrEOS = dstream.ErrEOS
)

// --- Parallel file system (the simulated Paragon PFS) ---

type (
	// FileSystem is the simulated parallel file system (Config.FS).
	FileSystem = pfs.FileSystem
	// BackendFactory creates the storage backend behind each file.
	BackendFactory = pfs.BackendFactory
	// FileLayout is the stripe geometry of the storage behind one file;
	// the two-phase strategy derives its aggregator plan from it.
	FileLayout = pfs.Layout
	// IOStats is a run's per-operation I/O account (Result.IO).
	IOStats = pfs.IOStats
)

// DefaultStripeUnit is the stripe cell size assumed for backends that do
// not expose their geometry.
const DefaultStripeUnit = pfs.DefaultStripeUnit

// File-system constructors.
var (
	// NewMemFS creates an in-memory file system with the profile's cost model.
	NewMemFS = pfs.NewMemFS
	// NewFileSystem creates a file system over a custom backend factory.
	NewFileSystem = pfs.NewFileSystem
	// MemFactory backs each file with one in-memory image.
	MemFactory = pfs.MemFactory
	// OSFactory backs each file with a real file under the given directory.
	OSFactory = pfs.OSFactory
	// StripedMemFactory stripes each file over k in-memory devices — the
	// geometry the two-phase strategy aggregates against.
	StripedMemFactory = pfs.StripedMemFactory
)

// Insert inserts an entire collection: s << g.
func Insert[T any, PT dstream.InserterPtr[T]](s *OStream, c *Collection[T]) error {
	return dstream.Insert[T, PT](s, c)
}

// Extract extracts an entire collection: s >> g.
func Extract[T any, PT dstream.ExtractorPtr[T]](s *IStream, c *Collection[T]) error {
	return dstream.Extract[T, PT](s, c)
}

// InsertField inserts one scalar field of every element: s << g.field.
func InsertField[T any, V dstream.Scalar](s *OStream, c *Collection[T], get func(*T) V) error {
	return dstream.InsertField(s, c, get)
}

// ExtractField extracts one scalar field of every element: s >> g.field.
func ExtractField[T any, V dstream.Scalar](s *IStream, c *Collection[T], ptr func(*T) *V) error {
	return dstream.ExtractField(s, c, ptr)
}

// InsertFloat64Slice inserts a variable-sized []float64 field — the
// paper's s << array(p.mass, p.numberOfParticles).
func InsertFloat64Slice[T any](s *OStream, c *Collection[T], get func(*T) []float64) error {
	return dstream.InsertFloat64Slice(s, c, get)
}

// ExtractFloat64Slice extracts a variable-sized []float64 field.
func ExtractFloat64Slice[T any](s *IStream, c *Collection[T], ptr func(*T) *[]float64) error {
	return dstream.ExtractFloat64Slice(s, c, ptr)
}

// InsertInt64Slice inserts a variable-sized []int64 field.
func InsertInt64Slice[T any](s *OStream, c *Collection[T], get func(*T) []int64) error {
	return dstream.InsertInt64Slice(s, c, get)
}

// ExtractInt64Slice extracts a variable-sized []int64 field.
func ExtractInt64Slice[T any](s *IStream, c *Collection[T], ptr func(*T) *[]int64) error {
	return dstream.ExtractInt64Slice(s, c, ptr)
}

// --- Sessions and the dstreamd daemon (ViPIOS-style client/server I/O) ---

type (
	// Session scopes stream opens to one storage domain: the process-local
	// file system (LocalSession) or a tenant namespace inside a running
	// dstreamd daemon (Connect). Open/OpenInput on a session take the same
	// functional options as the package-level calls.
	Session = session.Session
	// DaemonConfig configures a dstreamd instance (tenants, quotas, stripe
	// geometry, I/O ranks, admission windows).
	DaemonConfig = server.Config
	// DaemonTenant is one tenant namespace of a daemon.
	DaemonTenant = server.Tenant
	// Daemon is a running dstreamd instance (see StartDaemon; the dstreamd
	// command wraps it for standalone use).
	Daemon = server.Server
	// DaemonClientConfig tunes a session's connection to a daemon
	// (reconnect budget, session resume token).
	DaemonClientConfig = server.ClientConfig
)

var (
	// Connect opens a session with the dstreamd daemon at addr under the
	// named tenant: Connect(addr, "tenant-a") → *Session.
	Connect = session.Connect
	// ConnectConfig is Connect with explicit client tuning.
	ConnectConfig = session.ConnectConfig
	// LocalSession returns the process-local session (the embedded path).
	LocalSession = session.Local
	// DefaultSession returns the session package-level opens route through.
	DefaultSession = session.Default
	// SetDefaultSession points the package-level Open/OpenInput at a
	// session (nil restores the local one), so an embedded program becomes
	// daemon-backed without touching its open sites.
	SetDefaultSession = session.SetDefault
	// StartDaemon starts a dstreamd daemon in-process (tests, smoke runs);
	// production deployments run the dstreamd command.
	StartDaemon = server.Start

	// ErrQuota reports a write refused for breaching a tenant's byte quota.
	ErrQuota = server.ErrQuota
	// ErrUnknownTenant reports a connect under an unconfigured tenant name.
	ErrUnknownTenant = server.ErrUnknownTenant
	// ErrDaemonBusy reports admission refusal at a tenant's session limit.
	ErrDaemonBusy = server.ErrBusy
)

// --- Replicated-data I/O (paper §4.2) ---

// ReplicatedFile performs I/O on node-replicated local data: node 0 does
// the file I/O; reads are broadcast.
type ReplicatedFile = replicated.File

// OpenReplicated opens a replicated-data file on all nodes.
var OpenReplicated = replicated.Open

// --- Checkpoint manager (the §2 checkpointing task, productized) ---

type (
	// CheckpointManager rotates crash-consistent checkpoints over slots.
	CheckpointManager = ckpt.Manager
	// CheckpointSlot describes one validated checkpoint.
	CheckpointSlot = ckpt.Slot
)

// Checkpoint constructors and queries.
var (
	// NewCheckpointManager creates a rotating checkpoint manager.
	NewCheckpointManager = ckpt.New
	// LatestCheckpoint returns the newest valid checkpoint slot.
	LatestCheckpoint = ckpt.Latest
)

// SaveCheckpoint checkpoints a whole collection under the given epoch.
func SaveCheckpoint[T any, PT dstream.InserterPtr[T]](m *CheckpointManager, epoch uint64, c *Collection[T]) error {
	return ckpt.SaveCollection[T, PT](m, epoch, c)
}

// RestoreCheckpoint restores a collection from the newest valid checkpoint
// and returns its epoch. The collection's distribution (and the machine's
// node count) may differ from the writer's.
func RestoreCheckpoint[T any, PT dstream.ExtractorPtr[T]](n *Node, base string, slots int, c *Collection[T]) (uint64, error) {
	return ckpt.RestoreCollection[T, PT](n, base, slots, c)
}
