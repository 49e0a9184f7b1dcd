// Package storenet shares one result store — and one work queue —
// across machines over HTTP.
//
// No command uses it any more: brbench's remote cache tier and
// build-farm roles, brperf's load mode and the cmd/brstored server were
// removed, and this package and package queue are the last of that
// distribution stack left to delete.
//
// Server wraps a store.Store as a small content-addressed HTTP API —
// GET/HEAD/PUT of entries keyed by their SHA-256 fingerprints, batched
// multi-fingerprint get/put, plus a plaintext /metrics endpoint.
// Because entries are immutable and
// content-addressed, the cache protocol needs no invalidation, no
// locking, and no coordination: a PUT either lands a byte-validated
// entry or is rejected, and concurrent PUTs of the same fingerprint
// write identical content. Request and response bodies travel gzipped
// when the peer supports it.
//
// With AttachQueue the same server becomes a build-farm coordinator:
// the work-queue API (enqueue/lease/heartbeat/complete, package queue)
// hands (workload × options) jobs to pulling workers under TTL leases
// and re-offers whatever a dead worker was holding, while results flow
// back through the store API the fleet already shares.
//
// Client is the consumer side, written as a third cache tier behind
// the in-memory memo and the disk store. It is built to degrade, not to
// fail — every request carries a timeout, transient errors (5xx,
// connection loss) are retried a bounded number of times with
// exponentially backed-off, jittered delays, concurrent fetches of one
// fingerprint are deduplicated (single-flight), and once the server
// looks dead a breaker stops paying the timeout tax for the rest of the
// run. No Client failure ever propagates as an error to the build: the
// caller's local tiers simply take over. The queue-protocol calls are
// the exception — a worker's lifeline returns real errors (with the
// lease conflicts typed and never retried) and bypasses the breaker.
package storenet

// MaxEntryBytes bounds one serialized store entry in both directions:
// the server refuses larger uploads before reading them, and the client
// refuses to slurp a larger response. Real entries are a few hundred KB;
// the bound only exists so a hostile peer cannot force unbounded memory.
const MaxEntryBytes = 16 << 20

// entryPath returns the URL path of fp's entry.
func entryPath(fp string) string { return "/v1/entry/" + fp }

// validFingerprint reports whether fp is a lowercase SHA-256 hex digest
// — the only keys the store hands out, and the only ones the server
// lets near the filesystem.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
