package admission

import (
	"fmt"
	"net/netip"
)

// Action is a CIDR rule's verdict.
type Action int

const (
	// ActionAllow admits the request (optionally assigning a class).
	ActionAllow Action = iota
	// ActionDeny refuses the request at the door (403 "denied").
	ActionDeny
)

// ParseAction maps the policy file's action strings.
func ParseAction(s string) (Action, error) {
	switch s {
	case "", "allow":
		return ActionAllow, nil
	case "deny":
		return ActionDeny, nil
	}
	return 0, fmt.Errorf("admission: unknown action %q (want allow or deny)", s)
}

func (a Action) String() string {
	if a == ActionDeny {
		return "deny"
	}
	return "allow"
}

// trieValue is what a matching prefix resolves to: the verdict and
// the priority-class index assigned by the rule (-1 = policy default).
type trieValue struct {
	action Action
	class  int
}

// trieNode is one bit of the prefix tree. leaf is non-nil when a rule
// ends exactly here.
type trieNode struct {
	child [2]*trieNode
	leaf  *trieValue
}

// Trie is a longest-prefix-match binary trie over IPv4 and IPv6
// prefixes — the in-process form of the policy table. Lookup walks
// the address bit by bit, remembering the deepest rule seen, so the
// most specific prefix always wins; among duplicate prefixes the
// later-inserted rule wins, matching the policy file's "later rules
// override earlier ones" reading and the linear-scan oracle the fuzz
// target compares against.
//
// A Trie is built once per policy compile and read-only afterwards,
// so concurrent Lookup needs no locking; hot reloads swap the whole
// compiled table atomically instead of mutating a live trie.
type Trie struct {
	root4, root6 trieNode
	n            int
}

// normalizePrefix masks p to its canonical form and lowers 4-in-6
// prefixes (::ffff:a.b.c.d/n with n >= 96) onto the IPv4 tree, so a
// v4-mapped client address and its plain v4 spelling hit the same
// rules.
func normalizePrefix(p netip.Prefix) (netip.Prefix, error) {
	if !p.IsValid() {
		return netip.Prefix{}, fmt.Errorf("admission: invalid prefix %v", p)
	}
	if a := p.Addr(); a.Is4In6() && p.Bits() >= 96 {
		p = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
	}
	return p.Masked(), nil
}

// Len reports the number of distinct prefixes inserted.
func (t *Trie) Len() int { return t.n }

// insert adds one prefix → value mapping, overwriting an identical
// earlier prefix (later rule wins).
func (t *Trie) insert(p netip.Prefix, v trieValue) error {
	p, err := normalizePrefix(p)
	if err != nil {
		return err
	}
	node := &t.root6
	if p.Addr().Is4() {
		node = &t.root4
	}
	b := p.Addr().AsSlice()
	for i := 0; i < p.Bits(); i++ {
		bit := (b[i/8] >> (7 - i%8)) & 1
		if node.child[bit] == nil {
			node.child[bit] = &trieNode{}
		}
		node = node.child[bit]
	}
	if node.leaf == nil {
		t.n++
	}
	node.leaf = &v
	return nil
}

// lookup returns the value of the longest prefix containing a, and
// whether any prefix matched.
func (t *Trie) lookup(a netip.Addr) (trieValue, bool) {
	if !a.IsValid() {
		return trieValue{}, false
	}
	a = a.Unmap()
	node := &t.root6
	if a.Is4() {
		node = &t.root4
	}
	var best *trieValue
	if node.leaf != nil {
		best = node.leaf // a /0 rule
	}
	b := a.AsSlice()
	for i := 0; i < len(b)*8; i++ {
		bit := (b[i/8] >> (7 - i%8)) & 1
		node = node.child[bit]
		if node == nil {
			break
		}
		if node.leaf != nil {
			best = node.leaf
		}
	}
	if best == nil {
		return trieValue{}, false
	}
	return *best, true
}
