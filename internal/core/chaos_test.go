package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// TestSessionChaosDelayBitIdentical is the engine half of the chaos
// contract (DESIGN.md §11): a rollout under order-preserving faults
// (seeded delay + jitter on every link) must reproduce the fault-free
// frames bit for bit — slower, never different.
func TestSessionChaosDelayBitIdentical(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	const steps = 3
	ctx := context.Background()

	clean, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	var want []*tensor.Tensor
	ses, err := clean.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Run(ctx, steps, func(_ int, f *tensor.Tensor) error {
		want = append(want, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ses.Close()

	rules, err := mpi.ParseChaosRules("delay:*>*:d=200us:p=0.5,jitter:*>*:d=500us")
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := NewEngine(e, WithChaos(mpi.ChaosPlan{Seed: 11, Rules: rules}))
	if err != nil {
		t.Fatal(err)
	}
	ses, err = chaotic.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	k := 0
	if err := ses.Run(ctx, steps, func(_ int, f *tensor.Tensor) error {
		if !f.Equal(want[k]) {
			t.Fatalf("step %d: frame under delay/jitter differs from fault-free run", k)
		}
		k++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionChaosPartitionFailStop asserts a cut link turns a rollout
// into a bounded, attributed error carrying the request ID, the rank
// and the link — never a hang, never a frame.
func TestSessionChaosPartitionFailStop(t *testing.T) {
	ds := tinyDataset(t, 16, 6)
	_, e := trainTinyEnsemble(t, model.NeighborPad, 2, 2)
	rules, err := mpi.ParseChaosRules("partition:1>0")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(e, WithChaos(mpi.ChaosPlan{
		Seed: 3, RecvTimeout: 500 * time.Millisecond, Rules: rules,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithRequestID(context.Background(), "chaos-req-9")
	ses, err := eng.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	start := time.Now()
	frame, err := ses.Step(ctx)
	if err == nil {
		t.Fatal("partitioned rollout produced a frame")
	}
	if frame != nil {
		t.Fatal("failed step still returned a frame")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("fail-stop took %v", time.Since(start))
	}
	msg := err.Error()
	for _, want := range []string{"request=chaos-req-9", "rank 0", "link 1->0", "receive deadline"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error missing %q: %v", want, msg)
		}
	}
	if ses.trace != "chaos-req-9" {
		t.Fatalf("TraceID %q", ses.trace)
	}
}
