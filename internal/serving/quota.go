package serving

import (
	"net"
	"net/http"
	"sync"
	"time"

	"rfdump/internal/metrics"
)

// Quota rate-limits the store-backed reads with one token bucket per
// client host. History queries can fan out over segment files; an
// unthrottled dashboard polling them would contend with the ingest
// path for disk, so each host gets rps tokens per second with a burst
// ceiling and a 429 (Retry-After: 1) past it. Every route that reads
// the store pays; routes that do not (/api/streams, /api/live,
// /healthz) are not limited.
type Quota struct {
	rps   float64
	burst float64
	now   func() time.Time // injected in tests

	mu      sync.Mutex
	buckets map[string]*bucket

	throttled *metrics.Counter
}

type bucket struct {
	tokens float64
	last   time.Time
}

// quotaMaxHosts bounds the bucket map; past it the map is reset (every
// host restarts with a full bucket — cheap, and an abuser is throttled
// again within a burst).
const quotaMaxHosts = 1024

// NewQuota resolves the configured rate (0 = default 20 rps, burst
// 2× the rate; negative disables, returning nil — nil receivers pass
// every request).
func NewQuota(rps float64, burst int, reg *metrics.Registry) *Quota {
	if rps < 0 {
		return nil
	}
	if rps == 0 {
		rps = 20
	}
	if burst <= 0 {
		burst = int(2 * rps)
	}
	return &Quota{
		rps:       rps,
		burst:     float64(burst),
		now:       time.Now,
		buckets:   make(map[string]*bucket),
		throttled: reg.Counter("server/api/throttled"),
	}
}

// allow spends one token for host, refilling by elapsed wall time.
func (q *Quota) allow(host string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[host]
	if b == nil {
		if len(q.buckets) >= quotaMaxHosts {
			q.buckets = make(map[string]*bucket)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[host] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * q.rps
	if b.tokens > q.burst {
		b.tokens = q.burst
	}
	b.last = now
	if b.tokens < 1 {
		q.throttled.Inc()
		return false
	}
	b.tokens--
	return true
}

// Limit wraps a handler with the quota; a nil quota passes through.
func (q *Quota) Limit(h http.HandlerFunc) http.HandlerFunc {
	if q == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if !q.allow(host) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "history query quota exceeded", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}
