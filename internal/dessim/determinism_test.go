package dessim_test

import (
	"fmt"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/workload"
)

// stormFixture builds a 1 000-node ring over lossy, slow links, preloads a
// Zipf corpus, and runs a churn + query storm, returning a byte-exact
// transcript of everything observable: the storm result (with its folded
// per-query fingerprint), event counts, final virtual time, fault
// accounting, ring size, and total stored keys.
func stormFixture(t *testing.T, seed int64) string {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 1000,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   0.01,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			// Comfortably above a deep query's honest completion time, so
			// retries mean real loss rather than impatience (see the scale
			// test for the full rationale).
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(seed+2, 500, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 5000, 2))); err != nil {
		t.Fatal(err)
	}
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:            seed + 4,
		Queries:         300,
		Vocab:           vocab,
		Dims:            2,
		Joins:           15,
		Kills:           15,
		StabilizeRounds: 5,
	})
	return fmt.Sprintf("storm{%v} steps=%d vtime=%v faults=%+v peers=%d keys=%d hardViolations=%d",
		storm, nw.Core.Steps(), nw.Core.Elapsed(), nw.Net.Stats(), len(nw.Peers), nw.TotalKeys(),
		nw.RingViolations())
}

// streamStormFixture runs a smaller storm where every other query streams
// with Limit(TopK): delivery and batch counts fold into the fingerprint,
// so any nondeterminism in the streaming path (windowed dispatch, cancel
// teardown, partial forwarding) breaks replay equality.
func streamStormFixture(t *testing.T, seed int64) (dessim.StormResult, string) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 200,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 60 * time.Millisecond,
		},
		Engine: squid.Options{QueryDeadline: 2 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(seed+2, 300, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 3000, 2))); err != nil {
		t.Fatal(err)
	}
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:    seed + 4,
		Queries: 120,
		Vocab:   vocab,
		Dims:    2,
		TopK:    5,
	})
	return storm, fmt.Sprintf("storm{%v} steps=%d vtime=%v", storm, nw.Core.Steps(), nw.Core.Elapsed())
}

// TestStreamStormDeterminism extends the determinism contract to the
// streaming mix: Limit(k) streams replay byte-identically, every query
// resolves, and the streamed half is exactly half the storm.
func TestStreamStormDeterminism(t *testing.T) {
	sa, a := streamStormFixture(t, 9001)
	_, b := streamStormFixture(t, 9001)
	if a != b {
		t.Fatalf("same seed diverged:\n run1 %s\n run2 %s", a, b)
	}
	if sa.Streamed != 60 {
		t.Errorf("streamed %d of 120 queries, want 60", sa.Streamed)
	}
	if sa.Incomplete != 0 || sa.Partial != 0 {
		t.Errorf("lossless streaming storm left partial=%d incomplete=%d", sa.Partial, sa.Incomplete)
	}
	t.Logf("stream storm transcript: %s", a)
}

// TestStormDeterminism is the virtual-time determinism contract: the same
// 1k-node churn + query storm replays byte-identically from one seed, and
// two different seeds produce observably different runs (if they did not,
// the fingerprint would be vacuous).
func TestStormDeterminism(t *testing.T) {
	a := stormFixture(t, 7001)
	b := stormFixture(t, 7001)
	if a != b {
		t.Fatalf("same seed diverged:\n run1 %s\n run2 %s", a, b)
	}
	c := stormFixture(t, 7002)
	if a == c {
		t.Fatalf("different seeds replayed identically: %s", a)
	}
	t.Logf("storm transcript: %s", a)
}

// lossyTopKStorm runs a small lossy churn storm in which every other
// query is a Limit(10) stream, so satisfied streams tear their outstanding
// children down with QueryCancelMsg while links drop messages and peers
// join and die.
func lossyTopKStorm(t *testing.T, seed int64) dessim.StormResult {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 300,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   0.005,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(seed+2, 300, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 4*300, 2))); err != nil {
		t.Fatal(err)
	}
	nw.StabilizeAll(5)
	return nw.RunStorm(dessim.StormConfig{
		Seed:            seed + 4,
		Queries:         300,
		Vocab:           vocab,
		Dims:            2,
		Joins:           4,
		Kills:           4,
		StabilizeRounds: 5,
		TopK:            10,
	})
}

// TestLossyTopKStormReplaysInProcess pins the cancel path's determinism:
// teardown walks a subtree's children in dispatch order, so the same lossy
// TopK storm run five times in one process gives one fingerprint. (Ranging
// over the engine's token map instead reorders the QueryCancelMsg sends
// from run to run, and with them the whole schedule.)
func TestLossyTopKStormReplaysInProcess(t *testing.T) {
	first := lossyTopKStorm(t, 9005)
	if first.Streamed == 0 {
		t.Fatal("storm streamed no queries")
	}
	for run := 2; run <= 5; run++ {
		if got := lossyTopKStorm(t, 9005); got != first {
			t.Fatalf("run %d diverged:\n run 1 %v\n run %d %v", run, first, run, got)
		}
	}
	t.Logf("lossy TopK storm: %v", first)
}
