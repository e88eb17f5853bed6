package admission

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"time"
)

// Policy is the on-disk admission policy: the JSON document loaded
// from cmd/serve's and cmd/router's -policy file, POSTed whole to
// /v2/admin/policy, and checked offline by cmd/policyc. Everything a
// reload may change lives here; the Gate's Config holds only
// process-lifetime wiring (clock, proxy trust).
//
// A minimal policy is `{}`: allow everything, no rate limit, no
// concurrency budget — admission compiled in but fully transparent.
type Policy struct {
	// DefaultAction applies to clients no CIDR rule matches:
	// "allow" (the default) or "deny".
	DefaultAction string `json:"default_action,omitempty"`
	// DefaultClass is the priority class for requests that neither a
	// rule nor the class header assigns one (default: the last —
	// lowest-priority — class).
	DefaultClass string `json:"default_class,omitempty"`
	// ClassHeader, when set, lets a request name its own class via
	// this header (e.g. "X-Class"); unknown names fall back to the
	// CIDR/default assignment. A CIDR class assignment wins over the
	// header, so the network policy cannot be escalated past.
	ClassHeader string `json:"class_header,omitempty"`
	// IdentityHeader, when set, keys token buckets by this header's
	// value (e.g. "X-API-Key"); requests without it fall back to the
	// client IP.
	IdentityHeader string `json:"identity_header,omitempty"`
	// Rate is the per-client token-bucket refill rate in
	// requests/second; 0 disables the rate-limit stage.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity (default max(Rate, 1)).
	Burst float64 `json:"burst,omitempty"`
	// MaxConcurrent bounds requests running in the wrapped handler at
	// once; 0 disables the queue/shed stage.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueueWait bounds how long a request may sit queued before it
	// is shed (Go duration string, default "2s"); a request whose own
	// deadline is sooner gives up sooner.
	MaxQueueWait string `json:"max_queue_wait,omitempty"`
	// RetryAfter is the Retry-After hint on 503 responses (Go
	// duration string, default "1s"); 429 responses compute theirs
	// from the bucket state instead.
	RetryAfter string `json:"retry_after,omitempty"`
	// Classes lists the priority classes, highest priority first.
	// Empty means one implicit class. Shedding always starts at the
	// end of this list.
	Classes []ClassSpec `json:"classes,omitempty"`
	// Rules is the CIDR policy, evaluated longest-prefix-match; among
	// equal prefixes the later rule wins.
	Rules []Rule `json:"rules,omitempty"`
}

// ClassSpec declares one priority class.
type ClassSpec struct {
	Name string `json:"name"`
	// Queue bounds how many requests of this class may wait for a
	// concurrency slot (default 16).
	Queue int `json:"queue,omitempty"`
}

// Rule is one CIDR policy entry.
type Rule struct {
	CIDR string `json:"cidr"`
	// Action: "allow" (default) or "deny".
	Action string `json:"action,omitempty"`
	// Class assigns allowed traffic a priority class by name.
	Class string `json:"class,omitempty"`
}

// defaultClassName names the implicit class of a policy that declares
// none.
const defaultClassName = "default"

// defaultQueue is the per-class queue bound when a ClassSpec leaves
// Queue zero.
const defaultQueue = 16

// ParsePolicy decodes a policy document strictly: unknown fields are
// errors (a typoed key must not silently weaken a traffic policy),
// and exactly one JSON document is allowed.
func ParsePolicy(data []byte) (*Policy, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("admission: policy: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("admission: policy: trailing data after the JSON document")
	}
	return &p, nil
}

// LoadPolicyFile reads and parses a policy file.
func LoadPolicyFile(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	p, err := ParsePolicy(data)
	if err != nil {
		return nil, fmt.Errorf("admission: %s: %w", path, err)
	}
	return p, nil
}

// compiledClass is one priority level of a compiled table.
type compiledClass struct {
	name  string
	queue int
}

// Table is a compiled, immutable policy: the LPM trie over the rules,
// the class list in priority order, and every tuning value resolved
// to its effective form. The Gate swaps Tables atomically on reload;
// nothing in a Table is ever mutated after Compile returns.
type Table struct {
	src Policy // the policy as loaded (GET /v2/admin/policy echoes it)

	trie          Trie
	defaultAction Action
	defaultClass  int
	classes       []compiledClass
	classIndex    map[string]int // name → priority index (read-only)

	classHeader    string
	identityHeader string
	rate, burst    float64
	maxConcurrent  int
	maxQueueWait   time.Duration
	retryAfter     time.Duration
}

// Compile validates the policy and builds its lookup structures.
func (p *Policy) Compile() (*Table, error) {
	t := &Table{src: *p, classIndex: make(map[string]int)}
	var err error
	if t.defaultAction, err = ParseAction(p.DefaultAction); err != nil {
		return nil, fmt.Errorf("admission: default_action: %w", err)
	}

	classes := p.Classes
	if len(classes) == 0 {
		name := p.DefaultClass
		if name == "" {
			name = defaultClassName
		}
		classes = []ClassSpec{{Name: name}}
	}
	for i, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("admission: class %d: empty name", i)
		}
		if _, dup := t.classIndex[c.Name]; dup {
			return nil, fmt.Errorf("admission: duplicate class %q", c.Name)
		}
		q := c.Queue
		if q < 0 {
			return nil, fmt.Errorf("admission: class %q: negative queue %d", c.Name, q)
		}
		if q == 0 {
			q = defaultQueue
		}
		t.classIndex[c.Name] = i
		t.classes = append(t.classes, compiledClass{name: c.Name, queue: q})
	}

	t.defaultClass = len(t.classes) - 1 // lowest priority
	if p.DefaultClass != "" {
		idx, ok := t.classIndex[p.DefaultClass]
		if !ok {
			return nil, fmt.Errorf("admission: default_class %q is not a declared class", p.DefaultClass)
		}
		t.defaultClass = idx
	}

	for i, r := range p.Rules {
		action, err := ParseAction(r.Action)
		if err != nil {
			return nil, fmt.Errorf("admission: rule %d (%s): %w", i, r.CIDR, err)
		}
		class := -1
		if r.Class != "" {
			if action == ActionDeny {
				return nil, fmt.Errorf("admission: rule %d (%s): a deny rule cannot assign class %q", i, r.CIDR, r.Class)
			}
			idx, ok := t.classIndex[r.Class]
			if !ok {
				return nil, fmt.Errorf("admission: rule %d (%s): unknown class %q", i, r.CIDR, r.Class)
			}
			class = idx
		}
		pfx, err := netip.ParsePrefix(r.CIDR)
		if err != nil {
			return nil, fmt.Errorf("admission: rule %d: %w", i, err)
		}
		if err := t.trie.insert(pfx, trieValue{action: action, class: class}); err != nil {
			return nil, fmt.Errorf("admission: rule %d (%s): %w", i, r.CIDR, err)
		}
	}

	if p.Rate < 0 {
		return nil, fmt.Errorf("admission: negative rate %g", p.Rate)
	}
	if p.Burst < 0 {
		return nil, fmt.Errorf("admission: negative burst %g", p.Burst)
	}
	if p.MaxConcurrent < 0 {
		return nil, fmt.Errorf("admission: negative max_concurrent %d", p.MaxConcurrent)
	}
	t.rate = p.Rate
	t.burst = p.Burst
	if t.rate > 0 && t.burst == 0 {
		t.burst = t.rate
		if t.burst < 1 {
			t.burst = 1
		}
	}
	t.maxConcurrent = p.MaxConcurrent
	t.classHeader = p.ClassHeader
	t.identityHeader = p.IdentityHeader

	if t.maxQueueWait, err = parseOptionalDuration(p.MaxQueueWait, 2*time.Second); err != nil {
		return nil, fmt.Errorf("admission: max_queue_wait: %w", err)
	}
	if t.retryAfter, err = parseOptionalDuration(p.RetryAfter, time.Second); err != nil {
		return nil, fmt.Errorf("admission: retry_after: %w", err)
	}
	return t, nil
}

func parseOptionalDuration(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("admission: duration %q must be positive", s)
	}
	return d, nil
}

// Rules reports the number of compiled CIDR rules (distinct
// prefixes).
func (t *Table) Rules() int { return t.trie.Len() }

// Classes returns the class names in priority order.
func (t *Table) Classes() []string {
	out := make([]string, len(t.classes))
	for i, c := range t.classes {
		out[i] = c.name
	}
	return out
}

// Source returns a copy of the policy this table was compiled from.
func (t *Table) Source() Policy { return t.src }
