package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
)

// Sentinel errors surfaced to clients as clean failures (never hangs).
var (
	// ErrQuota reports a write or truncate that would push a tenant past its
	// byte quota. Permanent: the pfs retry layer does not retry it, so it
	// surfaces through dstream as a clean ErrIO on every rank.
	ErrQuota = errors.New("dstreamd: tenant quota exceeded")
	// ErrUnknownTenant reports a hello for a tenant the daemon was not
	// configured with.
	ErrUnknownTenant = errors.New("dstreamd: unknown tenant")
	// ErrBusy reports admission refusal: the tenant is at its session limit.
	ErrBusy = errors.New("dstreamd: tenant session limit reached")
	// ErrShutdown reports a request caught by daemon shutdown.
	ErrShutdown = errors.New("dstreamd: server shutting down")
)

// Tenant configures one namespace the daemon serves.
type Tenant struct {
	// Name identifies the tenant; clients present it at hello. Every file a
	// tenant opens lives under "<name>/" in the daemon's backing store, so
	// tenants cannot observe each other's bytes.
	Name string
	// QuotaBytes bounds the tenant's total reserved file bytes; zero means
	// unlimited. Breaches fail the offending write with a clean ErrQuota.
	QuotaBytes int64
	// MaxSessions bounds concurrent sessions (attached or within the
	// reconnect grace window); zero means unlimited.
	MaxSessions int
}

// Config describes one daemon instance.
type Config struct {
	// Factory creates the storage backend behind each (tenant-prefixed)
	// file. Nil defaults to a striped in-memory store with StripeFactor /
	// StripeUnit geometry.
	Factory pfs.BackendFactory
	// StripeFactor and StripeUnit shape the default striped store (and the
	// geometry reported to clients for backends that expose none). Defaults:
	// 4 devices × 64 KiB.
	StripeFactor int
	StripeUnit   int64
	// Tenants is the namespace table. A client presenting any other name is
	// rejected at hello.
	Tenants []Tenant
	// IORanks is the number of dedicated I/O goroutines that own the
	// storage; requests are routed by (file, stripe cell), so one file's
	// cell is always served by the same rank while distinct cells and files
	// proceed in parallel. Default: StripeFactor.
	IORanks int
	// WindowBytes is the per-session write window granted at hello: the
	// client keeps at most this many bulk payload bytes in flight on one
	// connection. Default 4 MiB.
	WindowBytes int64
	// TenantWindowBytes is the per-tenant admission budget: across all of a
	// tenant's sessions, at most this many bulk bytes are queued on the I/O
	// ranks at once; excess requests wait (backpressure, not failure).
	// Default: 2 × StripeFactor × StripeUnit — roughly the store's natural
	// concurrency, so one tenant cannot bury the stripe under a backlog.
	TenantWindowBytes int64
	// EagerBytes is the eager/rendezvous split reused from the comm layer:
	// requests whose payload is at most this many bytes bypass the
	// admission window (control traffic must not deadlock behind bulk
	// data), larger ones reserve window credits first. Default 4 KiB.
	EagerBytes int
	// Grace is how long a disconnected session stays resumable (and keeps
	// counting against MaxSessions). Default 30 s.
	Grace time.Duration
	// Monitor receives the daemon's metrics (per-tenant labels). Nil runs
	// unmonitored.
	Monitor *dsmon.Monitor
}

func (c Config) withDefaults() Config {
	if c.StripeFactor <= 0 {
		c.StripeFactor = 4
	}
	if c.StripeUnit <= 0 {
		c.StripeUnit = 64 << 10
	}
	if c.Factory == nil {
		c.Factory = pfs.StripedMemFactory(c.StripeFactor, c.StripeUnit)
	}
	if c.IORanks <= 0 {
		c.IORanks = c.StripeFactor
	}
	if c.WindowBytes <= 0 {
		c.WindowBytes = 4 << 20
	}
	if c.TenantWindowBytes <= 0 {
		c.TenantWindowBytes = 2 * int64(c.StripeFactor) * c.StripeUnit
	}
	if c.EagerBytes <= 0 {
		c.EagerBytes = 4 << 10
	}
	if c.Grace <= 0 {
		c.Grace = 30 * time.Second
	}
	return c
}

// byteSem is a counting semaphore over bytes with blocking acquisition —
// the admission window. Closing it releases every waiter with ErrShutdown.
type byteSem struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int64
	closed bool
}

func newByteSem(n int64) *byteSem {
	s := &byteSem{avail: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until n bytes are available (n is clamped to the window
// size elsewhere, so it can always be satisfied).
func (s *byteSem) acquire(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail < n && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return ErrShutdown
	}
	s.avail -= n
	return nil
}

func (s *byteSem) release(n int64) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *byteSem) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// srvFile is one tenant file: the backend (shared by every session of the
// tenant), its stripe geometry, and the reserved high-water size the quota
// accounting tracks.
type srvFile struct {
	b      pfs.Backend
	layout pfs.Layout
	resEnd int64
}

// tenantMetrics is the per-tenant handle set, all labeled tenant="<name>".
type tenantMetrics struct {
	sessions      *dsmon.Gauge
	sessionsTotal *dsmon.Counter
	reconnects    *dsmon.Counter
	quotaUsed     *dsmon.Gauge
	quotaRejects  *dsmon.Counter
	bytesIn       *dsmon.Counter
	bytesOut      *dsmon.Counter
	requests      *dsmon.Counter
	transients    *dsmon.Counter
	admissionWait *dsmon.Histogram
}

func newTenantMetrics(m *dsmon.Monitor, tenant string) tenantMetrics {
	reg := m.Registry()
	return tenantMetrics{
		sessions: reg.Gauge("dstreamd_sessions_active",
			"client sessions attached or within the reconnect grace window", "tenant", tenant),
		sessionsTotal: reg.Counter("dstreamd_sessions_total",
			"client sessions ever admitted", "tenant", tenant),
		reconnects: reg.Counter("dstreamd_reconnects_total",
			"sessions resumed after a disconnect", "tenant", tenant),
		quotaUsed: reg.Gauge("dstreamd_quota_used_bytes",
			"reserved file bytes counted against the tenant quota", "tenant", tenant),
		quotaRejects: reg.Counter("dstreamd_quota_rejects_total",
			"writes or truncates refused for breaching the tenant quota", "tenant", tenant),
		bytesIn: reg.Counter("dstreamd_bytes_in_total",
			"payload bytes received in write requests", "tenant", tenant),
		bytesOut: reg.Counter("dstreamd_bytes_out_total",
			"payload bytes returned in read responses", "tenant", tenant),
		requests: reg.Counter("dstreamd_requests_total",
			"requests served", "tenant", tenant),
		transients: reg.Counter("dstreamd_transient_replies_total",
			"requests answered with a retryable storage fault", "tenant", tenant),
		admissionWait: reg.Histogram("dstreamd_admission_wait_seconds",
			"real seconds bulk requests waited for the tenant admission window",
			dsmon.LatencyBuckets, "tenant", tenant),
	}
}

// tenantState is the server-side namespace of one tenant.
type tenantState struct {
	cfg    Tenant
	window *byteSem

	mu       sync.Mutex
	files    map[string]*srvFile
	usage    int64
	sessions int

	met tenantMetrics
}

// session is one admitted client session, resumable across connections.
type session struct {
	token string
	ten   *tenantState

	mu       sync.Mutex
	attached bool
	detached time.Time
}

// Server is a running dstreamd instance.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	tenants  map[string]*tenantState
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	closed   bool

	ranks []chan func()
	wg    sync.WaitGroup // conn handlers + janitor
	iowg  sync.WaitGroup // I/O rank workers

	mConns *dsmon.Gauge
}

// Start builds a daemon from cfg and serves it on addr (":0" picks a free
// port). It returns once the listener is bound.
func Start(addr string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dstreamd: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		tenants:  make(map[string]*tenantState),
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
		ranks:    make([]chan func(), cfg.IORanks),
	}
	// dsmon handles are nil-safe, so an unmonitored daemon needs no guards.
	s.mConns = cfg.Monitor.Registry().Gauge("dstreamd_connections_active",
		"client connections currently attached")
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			ln.Close()
			return nil, fmt.Errorf("dstreamd: tenant with empty name")
		}
		if _, dup := s.tenants[t.Name]; dup {
			ln.Close()
			return nil, fmt.Errorf("dstreamd: duplicate tenant %q", t.Name)
		}
		ts := &tenantState{
			cfg:    t,
			window: newByteSem(cfg.TenantWindowBytes),
			files:  make(map[string]*srvFile),
		}
		ts.met = newTenantMetrics(cfg.Monitor, t.Name)
		s.tenants[t.Name] = ts
	}
	for i := range s.ranks {
		ch := make(chan func(), 64)
		s.ranks[i] = ch
		s.iowg.Add(1)
		go func() {
			defer s.iowg.Done()
			for job := range ch {
				job()
			}
		}()
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Monitor returns the daemon's monitor (nil when unmonitored).
func (s *Server) Monitor() *dsmon.Monitor { return s.cfg.Monitor }

// Close shuts the daemon down: stops accepting, closes every client
// connection, drains the I/O ranks, and closes the storage backends.
// Idempotent; blocks until every goroutine has exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	tenants := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()

	s.ln.Close()
	for _, t := range tenants {
		t.window.close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	for _, ch := range s.ranks {
		close(ch)
	}
	s.iowg.Wait()
	var firstErr error
	for _, t := range tenants {
		t.mu.Lock()
		for _, f := range t.files {
			if err := f.b.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t.mu.Unlock()
	}
	return firstErr
}

// KillConnections forcibly closes every live client connection while
// leaving their sessions resumable within the grace window — the
// disconnect/reconnect fault the chaos oracle injects mid-run.
func (s *Server) KillConnections() int {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// SessionCount reports sessions currently admitted for the tenant
// (attached or within the grace window); -1 for an unknown tenant.
func (s *Server) SessionCount(tenant string) int {
	s.mu.Lock()
	t := s.tenants[tenant]
	s.mu.Unlock()
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions
}

// Usage reports a tenant's reserved bytes and quota; an error for unknown
// tenants.
func (s *Server) Usage(tenant string) (used, quota int64, err error) {
	s.mu.Lock()
	t := s.tenants[tenant]
	s.mu.Unlock()
	if t == nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.usage, t.cfg.QuotaBytes, nil
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.mConns.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.mConns.Add(-1)
	c.Close()
}

// newToken mints a session resume token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// connWriter serializes response frames onto one connection.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

func (w *connWriter) reply(payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A dead connection just drops the response; the client will resend the
	// request on its next connection.
	writeFrame(w.c, payload, nil) //nolint:errcheck
}

// send writes a frame that already carries its length prefix, in one Write
// (dropped on a dead connection, as reply's are).
func (w *connWriter) send(frame []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.c.Write(frame) //nolint:errcheck
}

func errPayload(id uint64, status uint8, msg string) []byte {
	return putStr(putU8(putU64(nil, id), status), msg)
}

// handleConn owns one client connection: hello, then the request loop.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	w := &connWriter{c: c}

	sess, err := s.hello(c, w)
	if err != nil {
		return
	}
	defer func() {
		// Detach: the session stays resumable for the grace window, then a
		// timer releases its admission slot.
		sess.mu.Lock()
		sess.attached = false
		sess.detached = time.Now()
		sess.mu.Unlock()
		time.AfterFunc(s.cfg.Grace, func() { s.expire(sess) })
	}()

	for {
		frame, err := readFrame(c)
		if err != nil || !s.serve(sess, w, frame) {
			return
		}
	}
}

// serve decodes and dispatches one request frame, reporting false when the
// connection must close (a goodbye or an undecodable request). The frame
// goes back to the pool here once decoded, except a write's: the I/O rank
// writes its data straight out of the frame and returns it afterwards.
func (s *Server) serve(sess *session, w *connWriter, frame []byte) bool {
	defer func() { bufpool.Put(frame) }()
	ten := sess.ten
	r := &reader{b: frame}
	id := r.u64()
	op := r.u8()
	ten.met.requests.Inc()
	switch op {
	case opBye:
		w.reply(putU8(putU64(nil, id), statusOK))
		// An explicit goodbye ends the session immediately: no grace,
		// the admission slot frees now.
		sess.mu.Lock()
		sess.attached = false
		sess.detached = time.Time{}
		sess.mu.Unlock()
		s.remove(sess)
		return false
	case opOpen:
		name := r.str()
		if r.err != nil {
			return false
		}
		s.doOpen(ten, w, id, name)
	case opSize:
		name := r.str()
		if r.err != nil {
			return false
		}
		f, err := s.lookup(ten, name)
		if err != nil {
			w.reply(errPayload(id, statusErr, err.Error()))
			return true
		}
		w.reply(putI64(putU8(putU64(nil, id), statusOK), f.b.Size()))
	case opTrunc:
		name := r.str()
		size := r.i64()
		if r.err != nil {
			return false
		}
		s.doTrunc(ten, w, id, name, size)
	case opUsage:
		ten.mu.Lock()
		used, quota := ten.usage, ten.cfg.QuotaBytes
		ten.mu.Unlock()
		w.reply(putI64(putI64(putU8(putU64(nil, id), statusOK), used), quota))
	case opRead:
		name := r.str()
		off := r.i64()
		n := r.u32()
		if r.err != nil || n > chunkBytes {
			return false
		}
		s.submitRead(ten, w, id, name, off, int(n))
	case opWrite:
		name := r.str()
		off := r.i64()
		data := r.bytes()
		if r.err != nil {
			return false
		}
		if s.submitWrite(ten, w, id, name, off, data, frame) {
			frame = nil // the I/O rank returns it
		}
	default:
		w.reply(errPayload(id, statusErr, fmt.Sprintf("dstreamd: unknown %s", opName(op))))
	}
	return true
}

// hello performs the handshake: authenticate the tenant, admit or resume
// the session, grant the write window.
func (s *Server) hello(c net.Conn, w *connWriter) (*session, error) {
	frame, err := readFrame(c)
	if err != nil {
		return nil, err
	}
	r := &reader{b: frame}
	id := r.u64()
	op := r.u8()
	tenant := r.str()
	token := r.str()
	bufpool.Put(frame)
	if r.err != nil || op != opHello {
		w.reply(errPayload(id, statusErr, "dstreamd: expected hello"))
		return nil, fmt.Errorf("bad hello")
	}
	s.mu.Lock()
	ten := s.tenants[tenant]
	if ten == nil {
		s.mu.Unlock()
		w.reply(errPayload(id, statusAuth, fmt.Sprintf("%v: %q", ErrUnknownTenant, tenant)))
		return nil, ErrUnknownTenant
	}
	resumed := false
	var sess *session
	if token != "" {
		if prev, ok := s.sessions[token]; ok && prev.ten == ten {
			sess = prev
			resumed = true
		}
	}
	if sess == nil {
		ten.mu.Lock()
		if ten.cfg.MaxSessions > 0 && ten.sessions >= ten.cfg.MaxSessions {
			ten.mu.Unlock()
			s.mu.Unlock()
			w.reply(errPayload(id, statusBusy,
				fmt.Sprintf("%v: %d active", ErrBusy, ten.cfg.MaxSessions)))
			return nil, ErrBusy
		}
		ten.sessions++
		ten.mu.Unlock()
		sess = &session{token: newToken(), ten: ten}
		s.sessions[sess.token] = sess
		ten.met.sessionsTotal.Inc()
		ten.met.sessions.Set(float64(sessionGauge(ten)))
	}
	s.mu.Unlock()
	sess.mu.Lock()
	sess.attached = true
	sess.mu.Unlock()
	if resumed {
		ten.met.reconnects.Inc()
	}

	ten.mu.Lock()
	used, quota := ten.usage, ten.cfg.QuotaBytes
	ten.mu.Unlock()
	out := putU8(putU64(nil, id), statusOK)
	out = putStr(out, sess.token)
	out = putI64(out, s.cfg.WindowBytes)
	out = putI64(out, quota)
	out = putI64(out, used)
	if resumed {
		out = putU8(out, 1)
	} else {
		out = putU8(out, 0)
	}
	out = putU32(out, uint32(s.cfg.EagerBytes))
	w.reply(out)
	return sess, nil
}

func sessionGauge(t *tenantState) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions
}

// expire releases a session's admission slot once its grace window passed
// without a resume.
func (s *Server) expire(sess *session) {
	sess.mu.Lock()
	stale := !sess.attached && !sess.detached.IsZero() && time.Since(sess.detached) >= s.cfg.Grace
	sess.mu.Unlock()
	if stale {
		s.remove(sess)
	}
}

// remove deletes a session and frees its admission slot. Idempotent.
func (s *Server) remove(sess *session) {
	s.mu.Lock()
	_, present := s.sessions[sess.token]
	delete(s.sessions, sess.token)
	s.mu.Unlock()
	if !present {
		return
	}
	sess.ten.mu.Lock()
	sess.ten.sessions--
	n := sess.ten.sessions
	sess.ten.mu.Unlock()
	sess.ten.met.sessions.Set(float64(n))
}

// lookup resolves an already-opened tenant file.
func (s *Server) lookup(t *tenantState, name string) (*srvFile, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[name]
	if !ok {
		return nil, fmt.Errorf("dstreamd: file %q not opened", name)
	}
	return f, nil
}

// doOpen gets or creates the tenant file and reports size and geometry.
func (s *Server) doOpen(t *tenantState, w *connWriter, id uint64, name string) {
	t.mu.Lock()
	f, ok := t.files[name]
	if !ok {
		b, err := s.cfg.Factory(t.cfg.Name + "/" + name)
		if err != nil {
			t.mu.Unlock()
			w.reply(errPayload(id, statusErr, fmt.Sprintf("dstreamd: open %q: %v", name, err)))
			return
		}
		f = &srvFile{b: b, resEnd: b.Size()}
		if lp, isLP := b.(pfs.LayoutProvider); isLP {
			f.layout = lp.Layout()
		}
		if f.layout.StripeFactor <= 0 || f.layout.StripeUnit <= 0 {
			f.layout = pfs.Layout{StripeUnit: s.cfg.StripeUnit, StripeFactor: s.cfg.StripeFactor}
		}
		t.files[name] = f
		// A pre-existing image (an OS-backed daemon restart) counts against
		// the quota from the start.
		t.usage += f.resEnd
		t.met.quotaUsed.Set(float64(t.usage))
	}
	size := f.b.Size()
	layout := f.layout
	t.mu.Unlock()
	out := putI64(putU8(putU64(nil, id), statusOK), size)
	out = putI64(out, layout.StripeUnit)
	out = putU32(out, uint32(layout.StripeFactor))
	w.reply(out)
}

// doTrunc resizes a tenant file, adjusting the quota reservation.
func (s *Server) doTrunc(t *tenantState, w *connWriter, id uint64, name string, size int64) {
	if size < 0 {
		w.reply(errPayload(id, statusErr, fmt.Sprintf("dstreamd: negative truncate %d", size)))
		return
	}
	f, err := s.lookup(t, name)
	if err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return
	}
	t.mu.Lock()
	switch {
	case size < f.resEnd:
		t.usage -= f.resEnd - size
		f.resEnd = size
	case size > f.resEnd:
		delta := size - f.resEnd
		if t.cfg.QuotaBytes > 0 && t.usage+delta > t.cfg.QuotaBytes {
			t.mu.Unlock()
			t.met.quotaRejects.Inc()
			w.reply(errPayload(id, statusQuota, fmt.Sprintf("%v: truncate to %d needs %d over %d",
				ErrQuota, size, delta, t.cfg.QuotaBytes)))
			return
		}
		t.usage += delta
		f.resEnd = size
	}
	usage := t.usage
	t.mu.Unlock()
	t.met.quotaUsed.Set(float64(usage))
	if err := f.b.Truncate(size); err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return
	}
	w.reply(putU8(putU64(nil, id), statusOK))
}

// rankFor routes one request to its dedicated I/O rank: the same (tenant,
// file, stripe cell) always lands on the same rank, so per-cell order is
// preserved while distinct cells and files fan out across the ranks — the
// ViPIOS "data is mapped across I/O server processes" scheme.
func (s *Server) rankFor(tenant, name string, off int64) chan func() {
	h := fnv.New64a()
	io.WriteString(h, tenant) //nolint:errcheck
	io.WriteString(h, "/")    //nolint:errcheck
	io.WriteString(h, name)   //nolint:errcheck
	cell := off / s.cfg.StripeUnit
	return s.ranks[(h.Sum64()^uint64(cell))%uint64(len(s.ranks))]
}

// admit reserves n bulk bytes from the tenant window (eager-sized requests
// pass straight through, like eager sends in the comm layer). The returned
// release func is nil-safe to call once.
func (s *Server) admit(t *tenantState, n int) (func(), error) {
	if n <= s.cfg.EagerBytes {
		return func() {}, nil
	}
	grab := int64(n)
	if grab > s.cfg.TenantWindowBytes {
		grab = s.cfg.TenantWindowBytes
	}
	start := time.Now()
	if err := t.window.acquire(grab); err != nil {
		return nil, err
	}
	t.met.admissionWait.Observe(time.Since(start).Seconds())
	var once sync.Once
	return func() { once.Do(func() { t.window.release(grab) }) }, nil
}

// submitRead admits and enqueues one read on its I/O rank.
func (s *Server) submitRead(t *tenantState, w *connWriter, id uint64, name string, off int64, n int) {
	f, err := s.lookup(t, name)
	if err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return
	}
	release, err := s.admit(t, n)
	if err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return
	}
	s.rankFor(t.cfg.Name, name, off) <- func() {
		defer release()
		// Read straight into the reply frame, behind room for its header.
		frame := bufpool.Get(readReplyHdr + n)
		defer bufpool.Put(frame)
		got, err := f.b.ReadAt(frame[readReplyHdr:], off)
		if got < 0 {
			got = 0
		}
		t.met.bytesOut.Add(int64(got))
		data := frame[readReplyHdr : readReplyHdr+got]
		switch {
		case err == nil || errors.Is(err, io.EOF):
			status := statusOK
			if err != nil {
				status = statusEOF
			}
			// The header encoders append in place, over the reserved room.
			putU32(putU8(putU64(putU32(frame[:0], uint32(readReplyHdr-4+got)), id), status), uint32(got))
			w.send(frame[:readReplyHdr+got])
		case pfs.IsTransient(err):
			t.met.transients.Inc()
			w.reply(putBytes(putStr(putU8(putU64(nil, id), statusTransient), err.Error()), data))
		default:
			w.reply(putStr(putU8(putU64(nil, id), statusErr), err.Error()))
		}
	}
}

// submitWrite checks the quota, admits, and enqueues one write, reporting
// whether it did. data aliases the request frame: a queued write's I/O rank
// returns the frame to the pool once WriteAt is done.
func (s *Server) submitWrite(t *tenantState, w *connWriter, id uint64, name string, off int64, data, frame []byte) bool {
	f, err := s.lookup(t, name)
	if err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return false
	}
	if off < 0 || off > math.MaxInt64-int64(len(data)) {
		// Past MaxInt64 the end would wrap negative and slip by the quota.
		w.reply(errPayload(id, statusErr, fmt.Sprintf("dstreamd: write of %d bytes at offset %d out of range", len(data), off)))
		return false
	}
	// Quota: reserve growth up front, under the tenant lock, so concurrent
	// writes through different I/O ranks cannot double-spend the budget. A
	// resend after reconnect re-reserves nothing (the high-water already
	// covers it), keeping retries idempotent.
	end := off + int64(len(data))
	t.mu.Lock()
	if end > f.resEnd {
		delta := end - f.resEnd
		if t.cfg.QuotaBytes > 0 && t.usage+delta > t.cfg.QuotaBytes {
			used := t.usage
			t.mu.Unlock()
			t.met.quotaRejects.Inc()
			w.reply(errPayload(id, statusQuota, fmt.Sprintf(
				"%v: write to %d needs %d more with %d of %d used",
				ErrQuota, end, delta, used, t.cfg.QuotaBytes)))
			return false
		}
		t.usage += delta
		f.resEnd = end
	}
	usage := t.usage
	t.mu.Unlock()
	t.met.quotaUsed.Set(float64(usage))
	t.met.bytesIn.Add(int64(len(data)))

	release, err := s.admit(t, len(data))
	if err != nil {
		w.reply(errPayload(id, statusErr, err.Error()))
		return false
	}
	s.rankFor(t.cfg.Name, name, off) <- func() {
		defer release()
		n, err := f.b.WriteAt(data, off)
		bufpool.Put(frame)
		if n < 0 {
			n = 0
		}
		out := putU64(nil, id)
		switch {
		case err == nil:
			out = putU32(putU8(out, statusOK), uint32(n))
		case pfs.IsTransient(err):
			t.met.transients.Inc()
			out = putU32(putStr(putU8(out, statusTransient), err.Error()), uint32(n))
		default:
			out = putStr(putU8(out, statusErr), err.Error())
		}
		w.reply(out)
	}
	return true
}
