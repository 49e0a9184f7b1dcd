package storenet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/bench/storenet/queue"
)

// ServerStats is a point-in-time snapshot of a server's counters, as
// rendered by /metrics.
type ServerStats struct {
	Hits       int64 // entries served
	Misses     int64 // lookups with no entry
	Invalid    int64 // entries on disk that failed validation (served as misses)
	Puts       int64 // entries accepted and stored
	PutRejects int64 // uploads refused by validation
	BytesIn    int64 // payload bytes accepted
	BytesOut   int64 // payload bytes served
	Evictions  int64 // entries removed by GC
	Enqueues   int64 // work-queue jobs accepted (0 without a queue)
	Leases     int64 // work-queue leases granted (0 without a queue)
}

// Server exposes a store.Store over HTTP. All durability properties —
// atomic writes, checksummed entries, corrupt-entry-as-miss — are
// inherited from the store; the server adds validation at the trust
// boundary (an uploaded entry must decode, checksum, and carry the
// fingerprint it is stored under) so no client, hostile or truncated,
// can poison the pool.
//
// With AttachQueue, the same server additionally coordinates a build
// farm: workers lease (workload × options) jobs over the work-queue API
// and write results back through the entry API, so the store and the
// queue share one trust boundary and one /metrics page. A Server is
// safe for concurrent use.
type Server struct {
	st    *store.Store
	queue *queue.Queue                             // nil for a plain cache server
	logf  func(format string, args ...interface{}) // request log sink; nil means off

	hits, misses, invalid        atomic.Int64
	puts, putRejects             atomic.Int64
	bytesIn, bytesOut, evictions atomic.Int64
	enqueues, leases             atomic.Int64
}

// NewServer returns a server backed by st.
func NewServer(st *store.Store) *Server { return &Server{st: st} }

// LogRequests turns on structured request logging: one line per request
// (method, path, status, bytes, duration, peer) to logf. Call before
// Handler.
func (s *Server) LogRequests(logf func(format string, args ...interface{})) { s.logf = logf }

// Handler returns the HTTP API:
//
//	GET  /v1/entry/{fp}    fetch one entry (404 on miss; HEAD works too)
//	PUT  /v1/entry/{fp}    upload one entry (400 if it fails validation)
//	POST /v1/batch/get     fetch many entries in one round trip
//	POST /v1/batch/put     upload many entries in one round trip
//	GET  /metrics          plaintext counters
//	GET  /metrics.json     the same counters as one JSON document
//
// and, when a queue is attached (the build-farm coordinator):
//
//	POST /v1/queue         enqueue a job matrix
//	GET  /v1/queue         queue status (counts, drained, failures)
//	POST /v1/lease         pull one job under a TTL lease
//	POST /v1/heartbeat     extend a lease
//	POST /v1/complete      finish (or fail) a leased job
//
// Request bodies may be gzip-compressed (Content-Encoding: gzip);
// responses are gzip-compressed for clients that accept it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/entry/{fp}", gzipped(s.handleGet)) // GET patterns match HEAD too
	mux.HandleFunc("PUT /v1/entry/{fp}", s.handlePut)
	mux.HandleFunc("POST /v1/batch/get", gzipped(s.handleBatchGet))
	mux.HandleFunc("POST /v1/batch/put", gzipped(s.handleBatchPut))
	mux.HandleFunc("GET /metrics", gzipped(s.handleMetrics))
	mux.HandleFunc("GET /metrics.json", gzipped(s.handleMetricsJSON))
	if s.queue != nil {
		mux.HandleFunc("POST /v1/queue", gzipped(s.handleEnqueue))
		mux.HandleFunc("GET /v1/queue", gzipped(s.handleQueueStatus))
		mux.HandleFunc("POST /v1/lease", gzipped(s.handleLease))
		mux.HandleFunc("POST /v1/complete", s.handleComplete)   // 204: no body to compress
		mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat) // 204: no body to compress
	}
	var h http.Handler = decompressRequests(mux)
	if s.logf != nil {
		h = logRequests(s.logf, h)
	}
	return h
}

// statusRecorder captures the status code and body size a handler wrote,
// for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// logRequests emits one structured line per request. The format is
// logfmt-shaped key=value pairs so the log is grep-able and parseable
// without being a dependency.
func logRequests(logf func(format string, args ...interface{}), h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		logf("brstored: req method=%s path=%s status=%d bytes=%d dur=%s remote=%s\n",
			r.Method, r.URL.Path, rec.status, rec.bytes,
			time.Since(start).Round(time.Microsecond), r.RemoteAddr)
	})
}

// Stats snapshots the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Invalid:    s.invalid.Load(),
		Puts:       s.puts.Load(),
		PutRejects: s.putRejects.Load(),
		BytesIn:    s.bytesIn.Load(),
		BytesOut:   s.bytesOut.Load(),
		Evictions:  s.evictions.Load(),
		Enqueues:   s.enqueues.Load(),
		Leases:     s.leases.Load(),
	}
}

// GC collects the backing store and folds evictions into the metrics.
func (s *Server) GC(maxAge time.Duration, maxBytes int64) (store.GCResult, error) {
	res, err := s.st.GCWith(store.GCPolicy{MaxAge: maxAge, MaxBytes: maxBytes, ProfileMaxAge: maxAge})
	s.evictions.Add(int64(res.Evicted))
	return res, err
}

// GCWith collects under a split policy — profile-kind entries policed
// by their own age bound, exempt from the result bytes budget — and
// folds evictions into the metrics.
func (s *Server) GCWith(p store.GCPolicy) (store.GCResult, error) {
	res, err := s.st.GCWith(p)
	s.evictions.Add(int64(res.Evicted))
	return res, err
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		http.Error(w, "malformed fingerprint", http.StatusBadRequest)
		return
	}
	// GetRaw verifies and serves entries of either kind (build results
	// and stage-2 profile records) from their canonical stored bytes.
	data, st := s.st.GetRaw(fp)
	switch st {
	case store.Miss:
		s.misses.Add(1)
		http.NotFound(w, r)
		return
	case store.Invalid:
		// Same contract as the disk tier: a corrupt entry is a miss,
		// never an error. The counter keeps the rot visible.
		s.invalid.Add(1)
		http.NotFound(w, r)
		return
	}
	s.hits.Add(1)
	// A hit refreshes the entry's mtime so LRU eviction spares what the
	// fleet actually uses.
	s.st.Touch(fp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	n, _ := w.Write(data)
	s.bytesOut.Add(int64(n))
}

// writeError marks a storage failure on an entry that validated — the
// server's fault (500), not the uploader's (400).
type writeError struct{ err error }

func (e *writeError) Error() string { return e.err.Error() }
func (e *writeError) Unwrap() error { return e.err }

// storeValidated lands one already-read entry body under fp, running the
// full kind-dispatched validation — schema, checksum, record shape, and
// that the payload's fingerprint matches the key it is stored under —
// so nothing unverifiable reaches disk. The single PUT and the batch
// PUT share it, so both paths enforce exactly the same trust boundary.
func (s *Server) storeValidated(fp string, body []byte) error {
	// The pool holds two entry kinds: whole build results and stage-2
	// profile records; each gets its kind's validator.
	kind, err := store.EntryKind(body)
	if err != nil {
		return err
	}
	switch kind {
	case store.KindBuild:
		rec, err := store.Decode(body, fp)
		if err != nil {
			return err
		}
		if err := s.st.Put(fp, rec); err != nil {
			return &writeError{err}
		}
		return nil
	case store.KindProfile:
		rec, err := store.DecodeProfile(body, fp)
		if err != nil {
			return err
		}
		if err := s.st.PutProfile(fp, rec); err != nil {
			return &writeError{err}
		}
		return nil
	case store.KindMerged:
		rec, err := store.DecodeMerged(body, fp)
		if err != nil {
			return err
		}
		if err := s.st.PutMerged(fp, rec); err != nil {
			return &writeError{err}
		}
		return nil
	default:
		return fmt.Errorf("unknown entry kind %q", kind)
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		s.putRejects.Add(1)
		http.Error(w, "malformed fingerprint", http.StatusBadRequest)
		return
	}
	// A declared length lets us refuse oversized uploads before reading
	// a byte, and detect truncated ones after. (A gzip body was already
	// inflated by the middleware, which set the true length.)
	if r.ContentLength < 0 {
		s.putRejects.Add(1)
		http.Error(w, "Content-Length required", http.StatusLengthRequired)
		return
	}
	if r.ContentLength > MaxEntryBytes {
		s.putRejects.Add(1)
		http.Error(w, "entry exceeds size limit", http.StatusRequestEntityTooLarge)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxEntryBytes))
	if err != nil {
		s.putRejects.Add(1)
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) != r.ContentLength {
		s.putRejects.Add(1)
		http.Error(w, "body shorter than Content-Length", http.StatusBadRequest)
		return
	}
	if err := s.storeValidated(fp, body); err != nil {
		var we *writeError
		if errors.As(err, &we) {
			// The entry validated; the disk failed. That is the server's
			// fault, not the client's.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.putRejects.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.puts.Add(1)
	s.bytesIn.Add(int64(len(body)))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?format=json is an alias for /metrics.json; the plaintext rendering
	// below stays byte-stable for everything that greps it.
	if r.URL.Query().Get("format") == "json" {
		s.handleMetricsJSON(w, r)
		return
	}
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "brstored_hits %d\n", st.Hits)
	fmt.Fprintf(w, "brstored_misses %d\n", st.Misses)
	fmt.Fprintf(w, "brstored_invalid %d\n", st.Invalid)
	fmt.Fprintf(w, "brstored_puts %d\n", st.Puts)
	fmt.Fprintf(w, "brstored_put_rejects %d\n", st.PutRejects)
	fmt.Fprintf(w, "brstored_bytes_in %d\n", st.BytesIn)
	fmt.Fprintf(w, "brstored_bytes_out %d\n", st.BytesOut)
	fmt.Fprintf(w, "brstored_evictions %d\n", st.Evictions)
	if s.queue != nil {
		s.queueMetrics(w)
	}
}
