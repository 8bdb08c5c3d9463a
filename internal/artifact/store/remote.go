package store

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/artifact"
)

// remoteMaxBytes bounds how much a peer response body is read: an
// artifact larger than this is refused rather than buffered, so a
// misbehaving peer cannot exhaust this replica's memory.
const remoteMaxBytes = 1 << 30 // 1 GiB

// Remote is a read-only store backed by peer replicas: Get issues
// GET {peer}/v1/artifacts/{hash} and re-hashes whatever comes back, so
// a corrupt or truncated peer response surfaces as ErrCorrupt, never as
// served bytes. Composed as the slow layer of a Union over the local
// tiers, it turns a replica into a pull-through cache of the fleet's
// artifact plane: a hash this replica lacks is fetched, verified,
// persisted locally, and served.
//
// Peer order for a given hash starts at a hash-derived offset, so a
// fleet fanning out fetches of many artifacts spreads load instead of
// hammering the first peer in everyone's list.
type Remote struct {
	counters
	peers  []string
	client *http.Client
}

// NewRemote builds a peer-fetching store over the given base URLs
// (e.g. "http://replica-b:8080"). Trailing slashes are trimmed; scheme
// defaults to http:// when absent, matching positrond -peers usage. Its
// HTTP client has a 30s overall timeout.
func NewRemote(peers []string) *Remote {
	r := &Remote{
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		r.peers = append(r.peers, p)
	}
	return r
}

// Peers returns the configured peer base URLs.
func (r *Remote) Peers() []string { return append([]string(nil), r.peers...) }

// ReadOnly marks the store as unwritable: peers own their blobs.
func (r *Remote) ReadOnly() bool { return true }

// Put implements Store: always ErrReadOnly.
func (r *Remote) Put([]byte) (artifact.Hash, error) {
	return artifact.Hash{}, ErrReadOnly
}

// Delete implements Store: always ErrReadOnly.
func (r *Remote) Delete(artifact.Hash) error { return ErrReadOnly }

// Get implements Store: tries peers in hash-rotated order and returns
// the first response that verifies. A peer serving bytes that do not
// hash to the address counts as corrupt and the next peer is tried; if
// every peer either lacks the blob or serves garbage, the corruption
// wins the error (the caller should know the fleet has a bad copy).
func (r *Remote) Get(h artifact.Hash) ([]byte, error) {
	r.gets.Add(1)
	if len(r.peers) == 0 {
		return nil, ErrNotFound
	}
	var corruptErr error
	start := int(h[0]) % len(r.peers)
	for i := range r.peers {
		peer := r.peers[(start+i)%len(r.peers)]
		data, err := r.fetch(peer, h)
		if err == nil {
			r.hits.Add(1)
			return data, nil
		}
		if errors.Is(err, ErrCorrupt) {
			r.corrupt.Add(1)
			corruptErr = err
		}
	}
	if corruptErr != nil {
		return nil, corruptErr
	}
	return nil, ErrNotFound
}

// fetch pulls one hash from one peer.
func (r *Remote) fetch(peer string, h artifact.Hash) ([]byte, error) {
	resp, err := r.client.Get(peer + "/v1/artifacts/" + h.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusNotFound {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: peer %s: unexpected status %s", peer, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, remoteMaxBytes+1))
	if err != nil {
		// A connection torn mid-body is indistinguishable from a
		// truncating peer; either way the bytes cannot be trusted.
		return nil, fmt.Errorf("%w: %s (peer %s: %v)", ErrCorrupt, h, peer, err)
	}
	if int64(len(data)) > remoteMaxBytes {
		return nil, fmt.Errorf("store: peer %s: artifact %s exceeds %d bytes", peer, h, int64(remoteMaxBytes))
	}
	if err := verify(h, data); err != nil {
		return nil, fmt.Errorf("%w (peer %s)", err, peer)
	}
	return data, nil
}

// Has implements Store: a HEAD probe across peers. Used by callers that
// want existence without moving bytes; errors from unreachable peers
// read as absence (the fleet may still be converging).
func (r *Remote) Has(h artifact.Hash) (bool, error) {
	if len(r.peers) == 0 {
		return false, nil
	}
	start := int(h[0]) % len(r.peers)
	for i := range r.peers {
		peer := r.peers[(start+i)%len(r.peers)]
		req, err := http.NewRequest(http.MethodHead, peer+"/v1/artifacts/"+h.String(), nil)
		if err != nil {
			continue
		}
		resp, err := r.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true, nil
		}
	}
	return false, nil
}

// List implements Store: a remote tier does not enumerate peers — the
// local layers are the authority on what this replica holds.
func (r *Remote) List() ([]artifact.Hash, error) { return nil, nil }

// GC implements Store: nothing to sweep; peer blobs are not ours.
func (r *Remote) GC(func(artifact.Hash) bool) (int, int64, error) {
	return 0, 0, nil
}

// Stats implements Store: counters only; a remote tier has no local
// occupancy.
func (r *Remote) Stats() Stats {
	var s Stats
	r.fill(&s)
	return s
}
