// Package faults is a deterministic fault-injection layer for the
// serving plane: an HTTP middleware that, driven by a seeded PRNG,
// delays, fails or drops requests according to declarative rules. It
// exists so the resilience tier (internal/router: retries and circuit
// breakers) is testable in-process and in CI without real
// network chaos — the same rule string that a unit test parses can be
// handed to positrond's -fault flag to turn a live replica into a
// misbehaving one.
//
// Rules are strings:
//
//	latency=50ms@p=0.3        delay 30% of requests by 50ms
//	error=503@p=0.2           fail 20% of requests with HTTP 503
//	drop@p=0.1                sever the connection on 10% of requests
//	/v1/infer:error=503@p=1   scope a rule to a path prefix
//
// "@p=..." defaults to 1 (always). Rules are evaluated in order per
// request: latency rules stack and fall through; the first error or
// drop rule that fires terminates the request. Sampling draws from one
// mutex-guarded SplitMix64 source, so a given seed and request sequence
// reproduces the same fault schedule on every run and platform — the
// determinism contract the chaos tests rely on.
package faults

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Kind is the fault a rule injects.
type Kind int

const (
	// Latency delays the request before handing it to the next handler.
	Latency Kind = iota
	// Error terminates the request with a fixed HTTP status.
	Error
	// Drop severs the connection without writing a response (the client
	// observes a reset — the transport-level failure a crashed replica
	// produces).
	Drop
)

// String names the kind as it appears in rule syntax.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
}

// Rule is one parsed fault rule.
type Rule struct {
	// Path scopes the rule to requests whose URL path has this prefix;
	// empty matches every route.
	Path string
	// Kind selects the fault.
	Kind Kind
	// Delay is the injected latency (Kind == Latency).
	Delay time.Duration
	// Status is the injected HTTP status (Kind == Error).
	Status int
	// P is the per-request injection probability in [0, 1].
	P float64
}

// String renders the rule in the syntax ParseRule accepts.
func (r Rule) String() string {
	var b strings.Builder
	if r.Path != "" {
		b.WriteString(r.Path)
		b.WriteByte(':')
	}
	switch r.Kind {
	case Latency:
		fmt.Fprintf(&b, "latency=%s", r.Delay)
	case Error:
		fmt.Fprintf(&b, "error=%d", r.Status)
	case Drop:
		b.WriteString("drop")
	}
	fmt.Fprintf(&b, "@p=%g", r.P)
	return b.String()
}

func (r Rule) matches(path string) bool {
	return r.Path == "" || strings.HasPrefix(path, r.Path)
}

// ParseRule parses one rule string: an optional "/path-prefix:" scope,
// then "latency=<duration>", "error=<status>" or "drop", then an
// optional "@p=<probability>" (default 1).
func ParseRule(s string) (Rule, error) {
	rule := Rule{P: 1}
	spec := strings.TrimSpace(s)
	if strings.HasPrefix(spec, "/") {
		path, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return Rule{}, fmt.Errorf("faults: rule %q: path scope needs a ':' before the action", s)
		}
		rule.Path = path
		spec = rest
	}
	if action, p, ok := strings.Cut(spec, "@"); ok {
		spec = action
		v, found := strings.CutPrefix(p, "p=")
		if !found {
			return Rule{}, fmt.Errorf("faults: rule %q: want @p=<probability>, got %q", s, p)
		}
		prob, err := strconv.ParseFloat(v, 64)
		if err != nil || prob < 0 || prob > 1 {
			return Rule{}, fmt.Errorf("faults: rule %q: probability %q must be in [0, 1]", s, v)
		}
		rule.P = prob
	}
	switch {
	case strings.HasPrefix(spec, "latency="):
		d, err := time.ParseDuration(spec[len("latency="):])
		if err != nil || d < 0 {
			return Rule{}, fmt.Errorf("faults: rule %q: bad latency duration", s)
		}
		rule.Kind = Latency
		rule.Delay = d
	case strings.HasPrefix(spec, "error="):
		code, err := strconv.Atoi(spec[len("error="):])
		if err != nil || code < 400 || code > 599 {
			return Rule{}, fmt.Errorf("faults: rule %q: error status must be in [400, 599]", s)
		}
		rule.Kind = Error
		rule.Status = code
	case spec == "drop":
		rule.Kind = Drop
	default:
		return Rule{}, fmt.Errorf("faults: rule %q: want latency=<dur>, error=<status> or drop", s)
	}
	return rule, nil
}

// ParseRules parses a list of rule strings, failing on the first bad one.
func ParseRules(specs []string) ([]Rule, error) {
	rules := make([]Rule, 0, len(specs))
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// Counts is a snapshot of the faults injected so far.
type Counts struct {
	Latencies int64 `json:"latencies"`
	Errors    int64 `json:"errors"`
	Drops     int64 `json:"drops"`
}

// Injector applies fault rules to HTTP requests. All methods are safe
// for concurrent use; a nil *Injector injects nothing.
type Injector struct {
	mu     sync.Mutex
	src    *rng.Source
	rules  []Rule
	counts Counts
}

// New returns an injector over the rules, drawing from a SplitMix64
// source seeded with seed. No rules means a no-op injector.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{src: rng.New(seed), rules: rules}
}

// Rules returns the injector's rule set.
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	return in.rules
}

// Counts snapshots the injected-fault counters.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// roll samples one Bernoulli draw. Draws are sequenced on one lock so a
// fixed seed and request order reproduce the same schedule.
func (in *Injector) roll(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return in.src.Float64() < p
}

// Wrap injects faults in front of next. A nil injector (or one with no
// rules) returns next unchanged.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	if in == nil || len(in.rules) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, rule := range in.rules {
			if !rule.matches(r.URL.Path) {
				continue
			}
			in.mu.Lock()
			fire := in.roll(rule.P)
			if fire {
				switch rule.Kind {
				case Latency:
					in.counts.Latencies++
				case Error:
					in.counts.Errors++
				case Drop:
					in.counts.Drops++
				}
			}
			in.mu.Unlock()
			if !fire {
				continue
			}
			switch rule.Kind {
			case Latency:
				select {
				case <-time.After(rule.Delay):
				case <-r.Context().Done():
					return
				}
			case Error:
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(rule.Status)
				fmt.Fprintf(w, `{"error":"fault injected: %d"}`, rule.Status)
				return
			case Drop:
				drop(w)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// drop severs the underlying connection so the client sees a
// transport-level failure, not an HTTP response. Handlers that cannot
// hijack (HTTP/2, test recorders) abort via http.ErrAbortHandler, which
// net/http turns into a stream reset without logging a crash.
func drop(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}
