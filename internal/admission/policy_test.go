package admission

import (
	"strings"
	"testing"
	"time"
)

func TestParsePolicyStrict(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty object", `{}`, ""},
		{"full", `{"default_action":"deny","rate":2,"burst":4,"max_concurrent":8,
			"classes":[{"name":"gold"},{"name":"bulk","queue":2}],
			"rules":[{"cidr":"10.0.0.0/8","action":"allow","class":"gold"}]}`, ""},
		{"unknown field", `{"ratee":2}`, "unknown field"},
		{"trailing data", `{} {}`, "trailing data"},
		{"not json", `nonsense`, "policy"},
		{"wrong type", `{"rate":"fast"}`, "policy"},
	}
	for _, c := range cases {
		_, err := ParsePolicy([]byte(c.in))
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name    string
		pol     Policy
		wantErr string
	}{
		{"bad default action", Policy{DefaultAction: "block"}, "unknown action"},
		{"empty class name", Policy{Classes: []ClassSpec{{}}}, "empty name"},
		{"dup class", Policy{Classes: []ClassSpec{{Name: "a"}, {Name: "a"}}}, "duplicate class"},
		{"negative queue", Policy{Classes: []ClassSpec{{Name: "a", Queue: -1}}}, "negative queue"},
		{"unknown default class", Policy{DefaultClass: "ghost", Classes: []ClassSpec{{Name: "a"}}}, "not a declared class"},
		{"rule unknown class", Policy{Rules: []Rule{{CIDR: "10.0.0.0/8", Class: "ghost"}}}, "unknown class"},
		{"deny with class", Policy{Classes: []ClassSpec{{Name: "a"}},
			Rules: []Rule{{CIDR: "10.0.0.0/8", Action: "deny", Class: "a"}}}, "deny rule cannot assign"},
		{"bad cidr", Policy{Rules: []Rule{{CIDR: "10.0.0.0"}}}, "rule 0"},
		{"bad rule action", Policy{Rules: []Rule{{CIDR: "10.0.0.0/8", Action: "reject"}}}, "unknown action"},
		{"negative rate", Policy{Rate: -1}, "negative rate"},
		{"negative burst", Policy{Burst: -1}, "negative burst"},
		{"negative max_concurrent", Policy{MaxConcurrent: -1}, "negative max_concurrent"},
		{"bad queue wait", Policy{MaxQueueWait: "soon"}, "max_queue_wait"},
		{"negative queue wait", Policy{MaxQueueWait: "-1s"}, "must be positive"},
		{"bad retry after", Policy{RetryAfter: "later"}, "retry_after"},
	}
	for _, c := range cases {
		_, err := c.pol.Compile()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestCompileDefaults(t *testing.T) {
	tab, err := (&Policy{}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Classes(); len(got) != 1 || got[0] != defaultClassName {
		t.Fatalf("Classes() = %v, want the one implicit %q class", got, defaultClassName)
	}
	if tab.classes[0].queue != defaultQueue {
		t.Fatalf("implicit class queue = %d, want %d", tab.classes[0].queue, defaultQueue)
	}
	if tab.defaultAction != ActionAllow || tab.defaultClass != 0 {
		t.Fatalf("defaults = (%v, %d), want (allow, 0)", tab.defaultAction, tab.defaultClass)
	}
	if tab.maxQueueWait != 2*time.Second || tab.retryAfter != time.Second {
		t.Fatalf("durations = (%v, %v), want (2s, 1s)", tab.maxQueueWait, tab.retryAfter)
	}
	if tab.rate != 0 || tab.maxConcurrent != 0 {
		t.Fatal("empty policy must leave both enforcement stages off")
	}
}

func TestCompileBurstDefault(t *testing.T) {
	tab, err := (&Policy{Rate: 0.25}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if tab.burst != 1 {
		t.Fatalf("burst = %g for sub-1 rate, want floor 1", tab.burst)
	}
	tab, err = (&Policy{Rate: 50}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if tab.burst != 50 {
		t.Fatalf("burst = %g, want the rate when unset", tab.burst)
	}
}

func TestCompileDefaultClassSelection(t *testing.T) {
	pol := Policy{Classes: []ClassSpec{{Name: "gold"}, {Name: "bulk"}}}
	tab, err := pol.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if tab.defaultClass != 1 {
		t.Fatalf("defaultClass = %d, want the last (lowest) class", tab.defaultClass)
	}
	pol.DefaultClass = "gold"
	if tab, err = pol.Compile(); err != nil {
		t.Fatal(err)
	}
	if tab.defaultClass != 0 {
		t.Fatalf("defaultClass = %d, want the named class", tab.defaultClass)
	}
}
