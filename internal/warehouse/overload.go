package warehouse

import (
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gsv/internal/obs"
)

// This file is the overload-protection layer of the serving tier
// (docs/WAREHOUSE.md "Overload & graceful drain"). PR 8's circuit
// breakers protect the warehouse from its *sources*; this is the
// symmetric half, protecting every server — primary, shard or replica —
// from its *clients*. Three mechanisms compose:
//
//   - Admission control: a connection cap plus a weighted concurrency
//     semaphore with a bounded FIFO wait queue. Health ops (stats,
//     trace, shard) are always exempt so operators can inspect an
//     overloaded node; data reads are sheddable with the typed
//     retryable ErrOverloaded; report/feed streams count against their
//     own cap so readers cannot starve replication.
//   - Deadline propagation: clients stamp their remaining budget into
//     each request frame (netRequest.BudgetMS); the server bounds queue
//     waits by it and sheds work whose budget already expired instead
//     of computing an answer nobody is waiting for.
//   - Graceful drain: Server.Drain stops accepting, sheds new data
//     reads with ErrDraining, lets in-flight ops finish, then closes.
//
// Everything here is old-client compatible: sheds travel as ordinary
// error strings carrying a recognizable marker, which new clients
// (RemoteSource, DialMultiFeed) map back to the typed sentinel.

// ErrOverloaded is the typed retryable shed error: the server refused
// the request because it is at capacity (admission queue full or wait
// timed out). The condition is transient — back off and retry. Its
// message is the wire marker new clients detect, so it must stay
// stable across versions.
var ErrOverloaded = errors.New("warehouse: overloaded (retryable)")

// ErrDraining sheds data reads on a server that is gracefully draining
// (SIGTERM): retry against another node. It wraps ErrOverloaded so one
// errors.Is covers both shed kinds.
var ErrDraining = fmt.Errorf("%w: draining", ErrOverloaded)

// ErrBudgetExpired sheds work whose client-stamped deadline budget
// already elapsed (in the queue, or before arrival): the client has
// given up, so computing the answer would be pure waste. It wraps
// ErrOverloaded — the caller's recovery (back off, retry) is the same.
var ErrBudgetExpired = fmt.Errorf("%w: request budget expired", ErrOverloaded)

// overloadMarker is the substring that identifies a shed error on the
// wire (ErrOverloaded's message; ErrDraining and ErrBudgetExpired
// contain it by construction). Old clients just see an error string;
// new clients map it back to the typed sentinel.
const overloadMarker = "overloaded (retryable)"

// overloadedError carries a server-rendered shed message while keeping
// errors.Is(err, ErrOverloaded) true across the wire, the same pattern
// feedExpiredError uses for feed.ErrCursorExpired.
type overloadedError struct{ msg string }

func (e *overloadedError) Error() string { return e.msg }
func (e *overloadedError) Unwrap() error { return ErrOverloaded }

// remoteError turns a server-side error string into the client-side
// error for a query-mode response or a refused feed handshake,
// restoring the ErrOverloaded sentinel when the string carries the shed
// marker. A server-rendered "warehouse: " prefix is dropped, so the
// client's "warehouse: remote: " appears once.
func remoteError(errStr string) error {
	msg := "warehouse: remote: " + strings.TrimPrefix(errStr, "warehouse: ")
	if strings.Contains(errStr, overloadMarker) {
		return &overloadedError{msg: msg}
	}
	return errors.New(msg)
}

// OpClass buckets query-mode ops for admission control.
type OpClass int

const (
	// ClassRead is a sheddable data read (object, members, query, ...).
	ClassRead OpClass = iota
	// ClassExempt ops (stats, trace, shard) bypass admission entirely:
	// they are how operators and federations inspect an overloaded or
	// draining node, so they must answer precisely when everything else
	// is being shed.
	ClassExempt
)

// ClassifyOp returns the admission class of a query-mode op. Unknown
// ops classify as reads: they cost a dispatch that answers unknown-op,
// which is as cheap as a shed, but classifying them exempt would hand
// hostile clients a free bypass.
func ClassifyOp(op string) OpClass {
	switch op {
	case "stats", "trace", "shard":
		return ClassExempt
	default:
		return ClassRead
	}
}

// OpWeight is an op's admission cost: point lookups weigh 1, scans
// (path evaluation, subtrees, full queries, view memberships) weigh 4,
// so one semaphore bounds a mixed workload by approximate work rather
// than request count.
func OpWeight(op string) int64 {
	switch op {
	case "eval", "subtree", "query", "queryat", "members":
		return 4
	default:
		return 1
	}
}

// AdmissionConfig sizes an AdmissionController. Zero-valued limits are
// unlimited, so the zero config admits everything (but still counts).
type AdmissionConfig struct {
	// MaxConns caps concurrently open connections (all modes). Accepts
	// beyond it are closed immediately — cheaper for both sides than a
	// handshake that would only be shed per-request later.
	MaxConns int
	// MaxStreams caps concurrently attached report streams and feed
	// subscriptions, which are long-lived and per-consumer; replication
	// fan-in gets its own budget instead of competing with reads.
	MaxStreams int
	// MaxInflight caps the total weighted concurrency of admitted data
	// reads (see OpWeight).
	MaxInflight int64
	// MaxQueue bounds how many reads may wait for admission; arrivals
	// beyond it are shed immediately with ErrOverloaded.
	MaxQueue int
	// QueueWait bounds how long one read may wait in the admission
	// queue before being shed (default 100ms). A request's own deadline
	// budget shortens the wait further.
	QueueWait time.Duration
	// MinSlack, when positive, sheds a deadline-carrying read unless at
	// least this much budget remains at dispatch time. A request that
	// would start evaluation with (say) a millisecond left almost
	// certainly produces a dead answer; requiring slack spends the
	// server's capacity only on answers that can still arrive alive.
	// Zero serves every not-yet-expired request.
	MinSlack time.Duration
}

// DefaultQueueWait bounds admission-queue waits when
// AdmissionConfig.QueueWait is zero.
const DefaultQueueWait = 100 * time.Millisecond

// admitWaiter is one queued read waiting for semaphore capacity.
type admitWaiter struct {
	weight  int64
	ready   chan struct{}
	granted bool
}

// AdmissionController implements the connection cap, the stream cap
// and the weighted read semaphore for one Server. All counters are
// exported for observability (RegisterObs) and for tests.
type AdmissionController struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	inflight int64
	conns    int
	streams  int
	waiters  *list.List // of *admitWaiter, FIFO

	// ShedConns counts connections closed at accept (MaxConns).
	ShedConns obs.Counter
	// ShedStreams counts report/feed attachments refused (MaxStreams).
	ShedStreams obs.Counter
	// ShedReads counts data reads shed with ErrOverloaded/ErrDraining.
	ShedReads obs.Counter
	// Queued counts reads that had to wait for admission.
	Queued obs.Counter
	// Expired counts reads shed because their deadline budget elapsed.
	Expired obs.Counter
	// Drains counts graceful drains started on the owning server.
	Drains obs.Counter
	// AcceptRetries counts transient Accept errors survived via backoff.
	AcceptRetries obs.Counter
}

// NewAdmissionController returns a controller for cfg.
func NewAdmissionController(cfg AdmissionConfig) *AdmissionController {
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = DefaultQueueWait
	}
	return &AdmissionController{cfg: cfg, waiters: list.New()}
}

// Config returns the controller's (defaulted) configuration.
func (a *AdmissionController) Config() AdmissionConfig { return a.cfg }

// AdmitConn claims one connection slot; false means the cap is hit and
// the connection must be closed.
func (a *AdmissionController) AdmitConn() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.MaxConns > 0 && a.conns >= a.cfg.MaxConns {
		a.ShedConns.Inc()
		return false
	}
	a.conns++
	return true
}

// ReleaseConn returns a connection slot.
func (a *AdmissionController) ReleaseConn() {
	a.mu.Lock()
	a.conns--
	a.mu.Unlock()
}

// AdmitStream claims one report/feed stream slot; false means refuse
// the attachment.
func (a *AdmissionController) AdmitStream() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.MaxStreams > 0 && a.streams >= a.cfg.MaxStreams {
		a.ShedStreams.Inc()
		return false
	}
	a.streams++
	return true
}

// ReleaseStream returns a stream slot.
func (a *AdmissionController) ReleaseStream() {
	a.mu.Lock()
	a.streams--
	a.mu.Unlock()
}

// Acquire admits one read of the given weight, waiting in FIFO order
// up to QueueWait (shortened by deadline when non-zero). It returns
// ErrOverloaded when the queue is full or the wait times out. Every
// nil return must be paired with Release(weight).
func (a *AdmissionController) Acquire(weight int64, deadline time.Time) error {
	a.mu.Lock()
	if a.cfg.MaxInflight <= 0 {
		a.inflight += weight
		a.mu.Unlock()
		return nil
	}
	if a.waiters.Len() == 0 && a.fitsLocked(weight) {
		a.inflight += weight
		a.mu.Unlock()
		return nil
	}
	if a.cfg.MaxQueue <= 0 || a.waiters.Len() >= a.cfg.MaxQueue {
		a.ShedReads.Inc()
		a.mu.Unlock()
		return ErrOverloaded
	}
	w := &admitWaiter{weight: weight, ready: make(chan struct{})}
	el := a.waiters.PushBack(w)
	a.Queued.Inc()
	a.mu.Unlock()

	wait := a.cfg.QueueWait
	if !deadline.IsZero() {
		if d := time.Until(deadline); d < wait {
			wait = d
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-timer.C:
	}
	a.mu.Lock()
	if w.granted {
		// Granted between the timer firing and us re-locking: we hold
		// the permit, so serve rather than shed.
		a.mu.Unlock()
		return nil
	}
	a.waiters.Remove(el)
	a.ShedReads.Inc()
	a.mu.Unlock()
	return ErrOverloaded
}

// fitsLocked reports whether weight fits under MaxInflight. A weight
// larger than the whole cap is admitted when the server is idle, so an
// undersized cap degrades to serial execution instead of deadlock.
func (a *AdmissionController) fitsLocked(weight int64) bool {
	if a.inflight == 0 {
		return true
	}
	return a.inflight+weight <= a.cfg.MaxInflight
}

// Release returns weight to the semaphore and grants as many queued
// waiters (in FIFO order) as now fit.
func (a *AdmissionController) Release(weight int64) {
	a.mu.Lock()
	a.inflight -= weight
	for a.waiters.Len() > 0 {
		el := a.waiters.Front()
		w := el.Value.(*admitWaiter)
		if !a.fitsLocked(w.weight) {
			break
		}
		a.waiters.Remove(el)
		w.granted = true
		a.inflight += w.weight
		close(w.ready)
	}
	a.mu.Unlock()
}

// Inflight returns the currently admitted weight.
func (a *AdmissionController) Inflight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// QueueLen returns the number of reads waiting for admission.
func (a *AdmissionController) QueueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters.Len()
}

// Conns returns the number of admitted connections.
func (a *AdmissionController) Conns() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.conns
}

// Streams returns the number of attached report/feed streams.
func (a *AdmissionController) Streams() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.streams
}

// RegisterObs exposes the overload counters and gauges on reg, with
// extra labels (e.g. per-shard) applied to every series.
func (a *AdmissionController) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	reg.Help("gsv_overload_shed_total", "requests shed by admission control, by class")
	reg.Help("gsv_overload_queued_total", "reads that waited in the admission queue")
	reg.Help("gsv_overload_expired_total", "reads shed because their deadline budget expired")
	reg.Help("gsv_overload_drains_total", "graceful drains started")
	reg.Help("gsv_overload_accept_retries_total", "transient accept errors survived via backoff")
	reg.Help("gsv_overload_inflight", "currently admitted read weight")
	reg.Help("gsv_overload_queue", "reads currently waiting for admission")
	reg.Help("gsv_overload_conns", "currently open connections")
	reg.Help("gsv_overload_streams", "currently attached report/feed streams")
	with := func(extra ...obs.Label) []obs.Label {
		return append(append([]obs.Label{}, labels...), extra...)
	}
	reg.RegisterCounter("gsv_overload_shed_total", &a.ShedConns, with(obs.L("class", "conn"))...)
	reg.RegisterCounter("gsv_overload_shed_total", &a.ShedStreams, with(obs.L("class", "stream"))...)
	reg.RegisterCounter("gsv_overload_shed_total", &a.ShedReads, with(obs.L("class", "read"))...)
	reg.RegisterCounter("gsv_overload_queued_total", &a.Queued, labels...)
	reg.RegisterCounter("gsv_overload_expired_total", &a.Expired, labels...)
	reg.RegisterCounter("gsv_overload_drains_total", &a.Drains, labels...)
	reg.RegisterCounter("gsv_overload_accept_retries_total", &a.AcceptRetries, labels...)
	reg.GaugeFunc("gsv_overload_inflight", func() float64 { return float64(a.Inflight()) }, labels...)
	reg.GaugeFunc("gsv_overload_queue", func() float64 { return float64(a.QueueLen()) }, labels...)
	reg.GaugeFunc("gsv_overload_conns", func() float64 { return float64(a.Conns()) }, labels...)
	reg.GaugeFunc("gsv_overload_streams", func() float64 { return float64(a.Streams()) }, labels...)
}
